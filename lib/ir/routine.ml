open Spike_isa

type t = {
  name : string;
  insns : Insn.t array;
  labels : (string * int) list;
  entries : string list;
  exported : bool;
}

let make ?(exported = false) ~name ~entries ~labels insns =
  if entries = [] then invalid_arg (name ^ ": routine needs at least one entry");
  { name; insns; labels; entries; exported }

let label_index r label = List.assoc_opt label r.labels

let primary_entry r =
  match r.entries with
  | entry :: _ -> entry
  | [] -> assert false (* excluded by [make] *)

let instruction_count r = Array.length r.insns

let exit_count r =
  Array.fold_left (fun n insn -> match insn with Insn.Ret -> n + 1 | _ -> n) 0 r.insns

let pp ppf r =
  Format.fprintf ppf ".routine %s%s@." r.name (if r.exported then " .exported" else "");
  List.iter (fun entry -> Format.fprintf ppf ".entry %s@." entry) r.entries;
  (* Labels bucketed once by the index they precede, in list order. *)
  let n = Array.length r.insns in
  let labels_at = Array.make (n + 1) [] in
  List.iter
    (fun (l, j) -> if j >= 0 && j <= n then labels_at.(j) <- l :: labels_at.(j))
    (List.rev r.labels);
  let label l = Format.fprintf ppf "%s:@." l in
  Array.iteri
    (fun i insn ->
      List.iter label labels_at.(i);
      Format.fprintf ppf "  %a@." Insn.pp insn)
    r.insns;
  List.iter label labels_at.(n);
  Format.fprintf ppf ".end@."
