open Spike_support
open Spike_isa
open Spike_core

exception Error of { line : int; message : string }

type partial = {
  name : string;
  mutable used : Regset.t option;
  mutable defined : Regset.t option;
  mutable killed : Regset.t option;
}

let parse source =
  let s = Scan.create source in
  let entries = ref [] in
  let current = ref None in
  let not_a_set () = Scan.fail s "expected '<field> = { ... }'" in
  let malformed () = Scan.fail s "malformed register set" in
  let member set =
    let r = Scan.register s in
    if r < 0 then Scan.fail s "unknown register %s" (Scan.tok_string s);
    Regset.add r set
  in
  (* A set line is [<field> = { a0, a1 }]: the brace list may be empty and
     may end with a comma.  A member is looked up once the token after it
     shows the list goes on.  These are the members after the "{",
     through the end of the line. *)
  let rec members set =
    if Scan.punct s '}' then if Scan.at_eol s then set else malformed ()
    else if not (Scan.ident s) then malformed ()
    else if Scan.punct s ',' then members (member set)
    else if Scan.punct s '}' && Scan.at_eol s then member set
    else malformed ()
  in
  while Scan.next_line s do
    (match !current with
    | None ->
        if Scan.directive s && Scan.tok_is s "summary" && Scan.ident s && Scan.at_eol s then
          current :=
            Some { name = Scan.tok_string s; used = None; defined = None; killed = None }
        else Scan.fail s "expected .summary"
    | Some p ->
        if Scan.directive s then
          if Scan.tok_is s "end" && Scan.at_eol s then begin
            (* With several sets missing, killed is reported first, then
               defined, then used. *)
            let field what = function
              | Some set -> set
              | None -> Scan.fail s "summary %s is missing its %s set" p.name what
            in
            let x_killed = field "killed" p.killed in
            let x_defined = field "defined" p.defined in
            let x_used = field "used" p.used in
            entries := (p.name, { Psg.x_used; x_defined; x_killed }) :: !entries;
            current := None
          end
          else not_a_set ()
        else begin
          let field = if Scan.ident s then Scan.tok_string s else not_a_set () in
          if not (Scan.punct s '=' && Scan.punct s '{') then not_a_set ();
          let set = members Regset.empty in
          match field with
          | "used" -> p.used <- Some set
          | "defined" -> p.defined <- Some set
          | "killed" -> p.killed <- Some set
          | _ -> Scan.fail s "unknown field %s" field
        end);
    Scan.end_line s
  done;
  (match !current with
  | Some p -> Scan.fail_at 0 (Printf.sprintf "summary %s not closed with .end" p.name)
  | None -> ());
  List.rev !entries

let of_string source =
  try parse source with Scan.Error { line; message } -> raise (Error { line; message })

let of_file path =
  let ic = open_in_bin path in
  let source =
    match really_input_string ic (in_channel_length ic) with
    | s ->
        close_in ic;
        s
    | exception e ->
        close_in_noerr ic;
        raise e
  in
  of_string source

let lookup entries name =
  List.find_map
    (fun (n, c) -> if String.equal n name then Some c else None)
    entries

let to_string entries =
  let buffer = Buffer.create 256 in
  let set s = Regset.to_string ~name:Reg.name s in
  List.iter
    (fun (name, (c : Psg.external_class)) ->
      Buffer.add_string buffer
        (Printf.sprintf ".summary %s\n  used = %s\n  defined = %s\n  killed = %s\n.end\n"
           name (set c.Psg.x_used) (set c.Psg.x_defined) (set c.Psg.x_killed)))
    entries;
  Buffer.contents buffer
