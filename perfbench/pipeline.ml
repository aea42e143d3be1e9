(* The two engines an op can run on.

   [plain] calls the library's drivers, [Analysis.run] and [Opt.run], as a
   user of the CLI does; the timed ops use it.  [layered] re-creates both
   drivers from the public functions they are made of, wrapping every layer
   in [layer.span], so the traced run and the memory pass can split an op
   by layer.  Both run at jobs = 1 and must give bit-identical results; the
   benchmark checks that on every traced op. *)

open Spike_support
open Spike_ir
open Spike_cfg
open Spike_core

type layer = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  count : string -> int -> unit;
}

let no_layer = { span = (fun _ f -> f ()); count = (fun _ _ -> ()) }

type engine = {
  layer : layer;
  analyze : Program.t -> Analysis.t;
  optimize : Analysis.t -> Program.t * Spike_opt.Opt.report;
}

(* Analysis.run's cold path at jobs = 1. *)
let cold_analysis l program =
  let routines = Program.routines program in
  let cfgs = l.span "cfg.build" (fun () -> Array.map Cfg.build routines) in
  let defuses = l.span "cfg.defuse" (fun () -> Array.map Defuse.compute cfgs) in
  let entry_filters =
    l.span "core.callee_saved" (fun () ->
        Array.mapi (fun r cfg -> Callee_saved.saved_and_restored routines.(r) cfg) cfgs)
  in
  let psg =
    l.span "core.psg_build" (fun () ->
        Psg_build.build ~branch_nodes:true ~entry_filters
          ~externals:(fun _ -> None)
          program cfgs defuses)
  in
  l.count "core.psg_nodes" (Psg.node_count psg);
  l.count "core.psg_edges" (Psg.edge_count psg);
  let sched = l.span "core.sched" (fun () -> Sched.make psg) in
  let phase1_iterations = l.span "core.phase1" (fun () -> Phase1.run ~sched psg) in
  let call_classes =
    l.span "core.extract" (fun () -> Summary.extract_call_classes psg)
  in
  let phase2_iterations = l.span "core.phase2" (fun () -> Phase2.run ~sched psg) in
  let summaries = l.span "core.extract" (fun () -> Summary.extract psg call_classes) in
  l.count "core.phase1_iters" phase1_iterations;
  l.count "core.phase2_iters" phase2_iterations;
  {
    Analysis.program;
    cfgs;
    defuses;
    psg;
    call_classes;
    summaries;
    timer = Timer.create ();
    phase1_iterations;
    phase2_iterations;
    branch_nodes = true;
    externals = (fun _ -> None);
    callee_saved_filter = true;
    jobs = 1;
    phase_sched = `Scc;
    reused_routines = 0;
    warm_capture = None;
  }

(* Opt.run's pass sequence: spill removal, save/restore elimination, then
   dead-code rounds until one removes nothing, re-analysing after every
   pass that changed the program. *)
let optimize l (analysis : Analysis.t) =
  let open Spike_opt in
  let rerun program = l.span "opt.rerun" (fun () -> cold_analysis l program) in
  let instructions_before = Program.instruction_count analysis.Analysis.program in
  let program, spills = l.span "opt.spill" (fun () -> Spill.apply analysis) in
  let analysis = rerun program in
  let program, renamings =
    l.span "opt.save_restore" (fun () -> Save_restore.apply analysis)
  in
  let analysis = rerun program in
  let dce_round (analysis : Analysis.t) liveness =
    let removed = ref 0 in
    let routines =
      Array.mapi
        (fun r routine ->
          match Dead_code.find_dead analysis liveness ~routine:r with
          | [] -> routine
          | dead ->
              removed := !removed + List.length dead;
              Rewrite.delete_instructions routine dead)
        (Program.routines analysis.Analysis.program)
    in
    ( Program.make
        ~main:(Program.main analysis.Analysis.program)
        (Array.to_list routines),
      !removed )
  in
  let rec dce analysis total =
    let liveness = l.span "opt.liveness" (fun () -> Liveness.compute analysis) in
    let program, removed = l.span "opt.dce" (fun () -> dce_round analysis liveness) in
    if removed = 0 then (program, total) else dce (rerun program) (total + removed)
  in
  let program, dead = dce analysis 0 in
  ( program,
    {
      Opt.spills_removed = List.length spills;
      save_restores_rewritten = List.length renamings;
      save_restore_instructions_removed =
        List.fold_left
          (fun n (r : Save_restore.renaming) -> n + r.Save_restore.removed_instructions)
          0 renamings;
      dead_instructions_removed = dead;
      instructions_before;
      instructions_after = Program.instruction_count program;
    } )

let plain =
  { layer = no_layer; analyze = Analysis.run ~jobs:1; optimize = Spike_opt.Opt.run }

let layered l = { layer = l; analyze = cold_analysis l; optimize = optimize l }
