(* The three workloads: their inputs, their op, and their correctness gate.

   All three use calibrated Spike_synth shapes; the benchmark seed is mixed
   into the shape's own seed, so one seed always yields the same programs.

   - analyze-winword: cold `spike analyze` on winword at scale 1.0.
   - reanalyze-gcc: edit, then re-analyse through the on-disk summary
     store, on gcc at scale 1.0; ops alternate between two versions of the
     text that differ in 1% of routines.
   - opt-vortex: `spike opt` on an executable vortex shape at scale 0.5. *)

open Spike_ir
open Spike_core

type kind = Analyze | Reanalyze | Optimize

let all = [ ("analyze-winword", Analyze); ("reanalyze-gcc", Reanalyze); ("opt-vortex", Optimize) ]

let params ?scale kind ~seed =
  let bench, default_scale =
    match kind with
    | Analyze -> ("winword", 1.0)
    | Reanalyze -> ("gcc", 1.0)
    | Optimize -> ("vortex", 0.5)
  in
  let scale = Option.value scale ~default:default_scale in
  let p =
    Spike_synth.Calibrate.params_of ~scale
      (Option.get (Spike_synth.Calibrate.find bench))
  in
  let p = { p with Spike_synth.Params.seed = Hashtbl.hash (p.Spike_synth.Params.seed, seed) } in
  match kind with
  | Optimize -> { p with Spike_synth.Params.guard_calls = true; unknown_jump_prob = 0.0 }
  | Analyze | Reanalyze -> p

(* --- Set-up ------------------------------------------------------------- *)

type input = {
  kind : kind;
  texts : string array;  (** the .s file of each version *)
  store : string;  (** store directory (reanalyze-gcc) *)
  out : string;  (** where an op writes its output text *)
  mutable turn : int;
      (** version the next op reads; reanalyze-gcc starts with the edit,
          since the store holds the first version *)
}

(* The size of the input program, which the metrics are stated at. *)
type size = {
  insns : int;  (** instructions of the input program *)
  text_bytes : int;  (** size of the first version's text *)
}

(* Bump the first immediate of a routine: the fingerprint changes, the
   program shape does not. *)
let bump_routine (r : Routine.t) =
  let insns = Array.copy r.Routine.insns in
  let rec go i =
    if i >= Array.length insns then r
    else
      match insns.(i) with
      | Spike_isa.Insn.Li { dst; imm } ->
          insns.(i) <- Spike_isa.Insn.Li { dst; imm = imm + 1 };
          { r with Routine.insns }
      | Spike_isa.Insn.Lda { dst; base; offset } ->
          insns.(i) <- Spike_isa.Insn.Lda { dst; base; offset = offset + 1 };
          { r with Routine.insns }
      | _ -> go (i + 1)
  in
  go 0

(* The edited version: 1% of routines (at least one), spread evenly. *)
let edit program =
  let routines = Program.routines program in
  let n = Array.length routines in
  let step = n / max 1 (n / 100) in
  Program.make ~main:(Program.main program)
    (Array.to_list (Array.mapi (fun i r -> if i mod step = 0 then bump_routine r else r) routines))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let versions = function Reanalyze -> 2 | Analyze | Optimize -> 1

(* The files of a workload set up in [dir]; the next op reads the last
   version. *)
let files kind ~dir =
  let path file = Filename.concat dir file in
  let n = versions kind in
  {
    kind;
    texts = Array.init n (fun v -> path (Printf.sprintf "input-%d.s" v));
    store = path "store";
    out = path "output.txt";
    turn = n - 1;
  }

let setup ?scale kind ~seed ~dir =
  remove_tree dir;
  Sys.mkdir dir 0o755;
  let input = files kind ~dir in
  let program = Spike_synth.Generator.generate (params ?scale kind ~seed) in
  let versions = match kind with Reanalyze -> [| program; edit program |] | _ -> [| program |] in
  Array.iteri (fun v p -> Spike_asm.Printer.to_file input.texts.(v) p) versions;
  if kind = Reanalyze then
    Spike_store.Store.save ~dir:input.store (Analysis.run ~jobs:1 ~capture:true program);
  ( input,
    {
      insns = Program.instruction_count program;
      text_bytes = (Unix.stat input.texts.(0)).Unix.st_size;
    } )

(* The store's files as they are now; calling the result writes them back
   and points the next op at [input.turn] again, so that a second op sees
   the same store and version as the first. *)
let snapshot input =
  let turn = input.turn in
  let saved =
    if input.kind <> Reanalyze then [||]
    else
      Array.map
        (fun f ->
          let p = Filename.concat input.store f in
          (p, In_channel.with_open_bin p In_channel.input_all))
        (Sys.readdir input.store)
  in
  fun () ->
    input.turn <- turn;
    Array.iter (fun (p, data) -> Out_channel.with_open_bin p (fun oc -> output_string oc data)) saved

(* --- The op --------------------------------------------------------------- *)

type output =
  | Summaries of Analysis.t
  | Optimized of Program.t * Spike_opt.Opt.report

(* The summaries as `spike analyze --summaries-out` writes them. *)
let pp_summaries ppf (a : Analysis.t) =
  Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s) a.Analysis.summaries

let write_summaries path a =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  pp_summaries ppf a;
  Format.pp_print_flush ppf ();
  close_out oc

let summaries_text a = Format.asprintf "%a" pp_summaries a

let validate l program =
  l.Pipeline.span "ir.validate" (fun () ->
      match Validate.check program with
      | Ok () -> ()
      | Error problems -> failwith (String.concat "; " problems))

(* One user-visible command on the workload's input.  Returns the version
   it read and its output. *)
let op (e : Pipeline.engine) input =
  let l = e.Pipeline.layer in
  let version = input.turn in
  if input.kind = Reanalyze then input.turn <- 1 - input.turn;
  let parse () =
    l.span "asm.parse" (fun () -> Spike_asm.Parser.program_of_file input.texts.(version))
  in
  let output =
    match input.kind with
    | Analyze ->
        let program = parse () in
        validate l program;
        let a = e.analyze program in
        l.span "asm.print" (fun () -> write_summaries input.out a);
        Summaries a
    | Reanalyze ->
        let program = parse () in
        let loaded =
          l.span "store.load" (fun () -> Spike_store.Store.load ~dir:input.store program)
        in
        l.count "store.hits" loaded.Spike_store.Store.hits;
        l.count "store.lookups"
          (loaded.Spike_store.Store.hits + loaded.Spike_store.Store.misses
         + loaded.Spike_store.Store.invalidated);
        let a =
          l.span "core.warm_analysis" (fun () ->
              Analysis.run ~jobs:1 ~warm:loaded.Spike_store.Store.plan ~capture:true
                program)
        in
        l.span "store.save" (fun () -> Spike_store.Store.save ~dir:input.store a);
        l.count "store.file_bytes"
          (Unix.stat (Filename.concat input.store Spike_store.Store.file_name)).Unix.st_size;
        l.span "asm.print" (fun () -> write_summaries input.out a);
        Summaries a
    | Optimize ->
        let program = parse () in
        validate l program;
        let optimized, report = e.optimize (e.analyze program) in
        l.span "asm.print" (fun () -> Spike_asm.Printer.to_file input.out optimized);
        Optimized (optimized, report)
  in
  (version, output)

(* What must repeat exactly across ops on one version, traced or not: the
   digest of the output text, which the gate also checks, and the phase
   iteration counts or the optimizer report. *)
let identity input output =
  ( Digest.to_hex (Digest.file input.out),
    match output with
    | Summaries a ->
        Printf.sprintf "%d/%d" a.Analysis.phase1_iterations a.Analysis.phase2_iterations
    | Optimized (_, r) ->
        Printf.sprintf "%d/%d/%d/%d" r.Spike_opt.Opt.spills_removed
          r.Spike_opt.Opt.save_restores_rewritten r.Spike_opt.Opt.dead_instructions_removed
          r.Spike_opt.Opt.instructions_after )

(* --- The correctness gate ------------------------------------------------- *)

type verdict = {
  checked : string array;  (** per version: digest of the checked output text *)
  problems : string list;
  code_size_ratio : float;
  cycles_ratio : float;
}

(* Call classes and live sets against Spike_reference, which solves the
   same equations without a PSG. *)
let reference_problems (a : Analysis.t) =
  let r = Spike_reference.Reference.run a.Analysis.program in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i (s : Summary.t) ->
      let expected = r.Spike_reference.Reference.call_classes.(i) in
      if a.Analysis.call_classes.(i) <> expected then fail "%s: call class differs" s.Summary.name;
      (match s.Summary.live_at_entry with
      | (_, live) :: _ ->
          if live <> r.Spike_reference.Reference.live_at_entry.(i) then
            fail "%s: live-at-entry differs" s.Summary.name
      | [] -> ());
      List.iter
        (fun (block, live) ->
          if List.assoc_opt block r.Spike_reference.Reference.live_at_exit.(i) <> Some live
          then fail "%s: live-at-exit B%d differs" s.Summary.name block)
        s.Summary.live_at_exit)
    a.Analysis.summaries;
  List.rev !problems

let digest_string s = Digest.to_hex (Digest.string s)

(* Run once per run, outside every timed region.  [last] is the output of
   the op the gate follows (analyze-winword, opt-vortex); reanalyze-gcc
   checks a cold analysis of each version instead, which also pins the warm
   ops to the cold answer. *)
let gate input last =
  match (input.kind, last) with
  | Reanalyze, _ ->
      let checks =
        Array.map
          (fun text ->
            let a = Analysis.run ~jobs:1 (Spike_asm.Parser.program_of_file text) in
            (digest_string (summaries_text a), reference_problems a))
          input.texts
      in
      {
        checked = Array.map fst checks;
        problems = List.concat_map snd (Array.to_list checks);
        code_size_ratio = 1.0;
        cycles_ratio = 1.0;
      }
  | Analyze, Some (Summaries a) ->
      {
        checked = [| digest_string (summaries_text a) |];
        problems = reference_problems a;
        code_size_ratio = 1.0;
        cycles_ratio = 1.0;
      }
  | Optimize, Some (Optimized (optimized, report)) ->
      let original = Spike_asm.Parser.program_of_file input.texts.(0) in
      let fuel = 100_000_000 in
      let before, profile_before = Spike_interp.Profile.collect ~fuel original in
      let after, profile_after = Spike_interp.Profile.collect ~fuel optimized in
      let cycles program profile =
        float_of_int
          (Spike_opt.Cost_model.program_cycles ~count:(Spike_interp.Profile.count profile)
             program)
      in
      (* The summaries that drove the optimizer must also hold on the
         input's execution (the interpreter's dynamic soundness oracle). *)
      let _, violations = Spike_interp.Oracle.check ~fuel (Analysis.run ~jobs:1 original) in
      let problems =
        (match Validate.check optimized with
        | Ok () -> []
        | Error ps -> List.map (( ^ ) "optimized program: ") ps)
        @ (match (before, after) with
          | Spike_interp.Machine.Halted x, Spike_interp.Machine.Halted y when x = y -> []
          | Spike_interp.Machine.Halted _, _ -> [ "interpreter outcome changed" ]
          | Spike_interp.Machine.Trapped _, _ -> [ "input program does not halt" ])
        @ List.map (Format.asprintf "%a" Spike_interp.Oracle.pp_violation) violations
      in
      {
        checked = [| digest_string (Spike_asm.Printer.to_string optimized) |];
        problems;
        code_size_ratio =
          float_of_int report.Spike_opt.Opt.instructions_after
          /. float_of_int report.Spike_opt.Opt.instructions_before;
        cycles_ratio = cycles optimized profile_after /. cycles original profile_before;
      }
  | (Analyze | Optimize), _ ->
      { checked = [||]; problems = [ "no op completed" ]; code_size_ratio = 1.0; cycles_ratio = 1.0 }
