(* Cross-validation of the PSG analysis:

   1. Exact agreement with the brute-force reference fixpoint
      (spike_reference) on call classes and liveness.
   2. Conservativeness of the context-insensitive supergraph liveness:
      it must contain the PSG's meet-over-valid-paths liveness.
   3. Branch nodes change graph size, never the solution.
   4. Dynamic soundness: summaries hold on actual executions (oracle). *)

open Spike_support
open Spike_ir
open Spike_core
open Spike_synth
open Test_helpers

let workloads () =
  let base = Params.default in
  let variants =
    [
      base;
      { base with Params.seed = 1; recursion_prob = 0.4 };
      { base with Params.seed = 2; switches_per_routine = 1.0; switch_loop_prob = 0.9 };
      { base with Params.seed = 3; save_restore_prob = 0.9 };
      { base with Params.seed = 4; unknown_call_prob = 0.2; indirect_known_prob = 0.2 };
      { base with Params.seed = 5; routines = 30; target_instructions = 2000 };
      { base with Params.seed = 6; exits_per_routine = 2.5 };
      { base with Params.seed = 7; branches_per_routine = 10.0 };
      { base with Params.seed = 8; extra_entry_prob = 0.3 };
      { base with Params.seed = 9; unknown_jump_prob = 0.2; guard_calls = false };
    ]
  in
  let seeds = List.init 10 (fun i -> { base with Params.seed = 100 + i }) in
  List.map Generator.generate (variants @ seeds)

let check_program_agreement p = check_reference (Analysis.run p)

let test_reference_agreement () =
  check_program_agreement (figure2_program ());
  List.iter check_program_agreement (workloads ())

let check_supergraph_conservative p =
  let analysis = Analysis.run p in
  let super = Spike_supercfg.Supercfg.build p analysis.Analysis.cfgs in
  let live = Spike_supercfg.Supercfg.liveness super analysis.Analysis.defuses in
  Program.iter
    (fun r (routine : Routine.t) ->
      let name = routine.Routine.name in
      let s = analysis.Analysis.summaries.(r) in
      let cfg = analysis.Analysis.cfgs.(r) in
      (match (s.Summary.live_at_entry, cfg.Spike_cfg.Cfg.entry_blocks) with
      | (_, psg_live) :: _, (_, entry_block) :: _ ->
          let super_live =
            Regset.inter
              (Spike_supercfg.Supercfg.live_in live ~routine:r ~block:entry_block)
              Spike_isa.Calling_standard.all_allocatable
          in
          if not (Regset.subset psg_live super_live) then
            Alcotest.failf "%s: PSG live-at-entry %s not within supergraph %s" name
              (Regset.to_string ~name:Spike_isa.Reg.name psg_live)
              (Regset.to_string ~name:Spike_isa.Reg.name super_live)
      | _, _ -> ());
      List.iter
        (fun (block, psg_live) ->
          let super_live =
            Regset.inter
              (Spike_supercfg.Supercfg.live_out live ~routine:r ~block)
              Spike_isa.Calling_standard.all_allocatable
          in
          if not (Regset.subset psg_live super_live) then
            Alcotest.failf "%s B%d: PSG live-at-exit %s not within supergraph %s" name
              block
              (Regset.to_string ~name:Spike_isa.Reg.name psg_live)
              (Regset.to_string ~name:Spike_isa.Reg.name super_live))
        s.Summary.live_at_exit)
    p

let test_supergraph_conservative () =
  check_supergraph_conservative (figure2_program ());
  List.iter check_supergraph_conservative (workloads ())

let test_branch_nodes_solution_invariant () =
  List.iter
    (fun p ->
      let with_bn = Analysis.run ~branch_nodes:true p in
      let without = Analysis.run ~branch_nodes:false p in
      Program.iter
        (fun r (routine : Routine.t) ->
          let name = routine.Routine.name in
          let a = with_bn.Analysis.call_classes.(r)
          and b = without.Analysis.call_classes.(r) in
          check_regset (name ^ " used") b.Summary.used a.Summary.used;
          check_regset (name ^ " defined") b.Summary.defined a.Summary.defined;
          check_regset (name ^ " killed") b.Summary.killed a.Summary.killed;
          List.iter2
            (fun (_, la) (_, lb) -> check_regset (name ^ " live-entry") lb la)
            with_bn.Analysis.summaries.(r).Summary.live_at_entry
            without.Analysis.summaries.(r).Summary.live_at_entry;
          List.iter2
            (fun (_, la) (_, lb) -> check_regset (name ^ " live-exit") lb la)
            with_bn.Analysis.summaries.(r).Summary.live_at_exit
            without.Analysis.summaries.(r).Summary.live_at_exit)
        p)
    (workloads ())

let executable_workloads () =
  List.filter
    (fun p ->
      (* The unknown-jump variant cannot run under the interpreter. *)
      Array.for_all
        (fun (r : Routine.t) ->
          Array.for_all
            (fun insn ->
              match insn with Spike_isa.Insn.Jump_unknown _ -> false | _ -> true)
            r.Routine.insns)
        (Program.routines p))
    (workloads ())

let test_dynamic_soundness () =
  List.iter
    (fun p ->
      let analysis = Analysis.run p in
      let outcome, violations = Spike_interp.Oracle.check ~fuel:3_000_000 analysis in
      (match outcome with
      | Spike_interp.Machine.Halted _ -> ()
      | Spike_interp.Machine.Trapped _ -> Alcotest.fail "workload should halt");
      match violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "soundness violation: %s"
            (Format.asprintf "%a" Spike_interp.Oracle.pp_violation v))
    (executable_workloads ())

let () =
  Alcotest.run "agreement"
    [
      ( "cross-validation",
        [
          Alcotest.test_case "psg = reference" `Quick test_reference_agreement;
          Alcotest.test_case "psg within supergraph" `Quick test_supergraph_conservative;
          Alcotest.test_case "branch nodes invariant" `Quick
            test_branch_nodes_solution_invariant;
          Alcotest.test_case "dynamic soundness" `Quick test_dynamic_soundness;
        ] );
    ]
