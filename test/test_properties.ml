(* QCheck property tests: the deep invariants, sampled over random
   generator parameter vectors rather than fixed seeds. *)

open Spike_support
open Spike_ir
open Spike_core
open Spike_synth

(* Arbitrary generator parameters: small programs (the reference oracle is
   O(routines^2)-ish), but with every structural feature dialable. *)
let arbitrary_params =
  let open QCheck.Gen in
  let pfloat_b x = map (fun f -> Float.abs f *. x) (float_bound_inclusive 1.0) in
  let gen =
    int_bound 1_000_000 >>= fun seed ->
    int_range 2 16 >>= fun routines ->
    int_range 100 900 >>= fun target_instructions ->
    pfloat_b 6.0 >>= fun calls_per_routine ->
    pfloat_b 8.0 >>= fun branches_per_routine ->
    pfloat_b 1.0 >>= fun switches_per_routine ->
    int_range 2 8 >>= fun switch_fanout ->
    pfloat_b 1.0 >>= fun switch_loop_prob ->
    pfloat_b 1.0 >>= fun switch_arm_calls ->
    pfloat_b 1.0 >>= fun recursion_prob ->
    pfloat_b 0.3 >>= fun indirect_known_prob ->
    pfloat_b 0.3 >>= fun unknown_call_prob ->
    pfloat_b 1.0 >>= fun save_restore_prob ->
    pfloat_b 1.5 >>= fun loops_per_routine ->
    pfloat_b 0.8 >>= fun loop_call_prob ->
    pfloat_b 0.5 >>= fun spill_prob ->
    pfloat_b 0.2 >>= fun extra_entry_prob ->
    pfloat_b 2.0 >>= fun exits_extra ->
    return
      {
        Params.seed;
        routines;
        target_instructions;
        calls_per_routine;
        branches_per_routine;
        switches_per_routine;
        switch_fanout;
        switch_loop_prob;
        switch_arm_calls;
        exits_per_routine = 1.0 +. exits_extra;
        extra_entry_prob;
        recursion_prob;
        indirect_known_prob;
        unknown_call_prob;
        unknown_jump_prob = 0.0;
        exported_prob = 0.1;
        save_restore_prob;
        loops_per_routine;
        loop_call_prob;
        spill_prob;
        guard_calls = true;
      }
  in
  let print (p : Params.t) =
    Printf.sprintf
      "{seed=%d; routines=%d; insns=%d; calls=%f; branches=%f; switches=%f; \
       fanout=%d; sw_loop=%f; sw_arm=%f; exits=%f; extra_entry=%f; rec=%f; \
       ind=%f; unk=%f; save=%f; loops=%f; loop_call=%f; spill=%f}"
      p.Params.seed p.Params.routines p.Params.target_instructions
      p.Params.calls_per_routine p.Params.branches_per_routine
      p.Params.switches_per_routine p.Params.switch_fanout p.Params.switch_loop_prob
      p.Params.switch_arm_calls p.Params.exits_per_routine p.Params.extra_entry_prob
      p.Params.recursion_prob p.Params.indirect_known_prob p.Params.unknown_call_prob
      p.Params.save_restore_prob p.Params.loops_per_routine p.Params.loop_call_prob
      p.Params.spill_prob
  in
  QCheck.make ~print gen

let class_equal (a : Summary.call_class) (b : Summary.call_class) =
  Regset.equal a.Summary.used b.Summary.used
  && Regset.equal a.Summary.defined b.Summary.defined
  && Regset.equal a.Summary.killed b.Summary.killed

let prop_generated_valid =
  QCheck.Test.make ~name:"generated programs validate" ~count:60 arbitrary_params
    (fun params ->
      match Validate.check (Generator.generate params) with
      | Ok () -> true
      | Error _ -> false)

let prop_psg_equals_reference =
  QCheck.Test.make ~name:"psg analysis = reference fixpoint" ~count:40
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      let analysis = Analysis.run p in
      let reference = Spike_reference.Reference.run p in
      let classes_ok =
        Array.for_all2 class_equal analysis.Analysis.call_classes
          reference.Spike_reference.Reference.call_classes
      in
      let liveness_ok = ref true in
      Array.iteri
        (fun r (s : Summary.t) ->
          (match s.Summary.live_at_entry with
          | (_, live) :: _ ->
              if
                not
                  (Regset.equal live
                     reference.Spike_reference.Reference.live_at_entry.(r))
              then liveness_ok := false
          | [] -> ());
          List.iter
            (fun (block, live) ->
              match
                List.assoc_opt block
                  reference.Spike_reference.Reference.live_at_exit.(r)
              with
              | Some expected -> if not (Regset.equal live expected) then liveness_ok := false
              | None -> liveness_ok := false)
            s.Summary.live_at_exit)
        analysis.Analysis.summaries;
      classes_ok && !liveness_ok)

let prop_branch_nodes_invariant =
  QCheck.Test.make ~name:"branch nodes never change the solution" ~count:40
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      let a = Analysis.run ~branch_nodes:true p in
      let b = Analysis.run ~branch_nodes:false p in
      Array.for_all2 class_equal a.Analysis.call_classes b.Analysis.call_classes)

(* The PSG's flow-edge labels (one solve per sink block) against the
   paper's construction (one subgraph solve per edge), with and without
   branch nodes. *)
let prop_flow_labels_figure6 =
  QCheck.Test.make ~name:"flow edge labels = per-edge figure-6 solve" ~count:30
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      List.iter
        (fun branch_nodes -> ignore (Test_helpers.check_figure6_labels ~branch_nodes p))
        [ true; false ];
      true)

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"assembly print/parse roundtrip" ~count:60 arbitrary_params
    (fun params ->
      let p = Generator.generate params in
      let text = Spike_asm.Printer.to_string p in
      let p' = Spike_asm.Parser.program_of_string text in
      String.equal text (Spike_asm.Printer.to_string p'))

let prop_opt_preserves_outcome =
  QCheck.Test.make ~name:"optimizations preserve the exit status" ~count:25
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      let optimized, _ = Spike_opt.Opt.run (Analysis.run p) in
      match
        ( Spike_interp.Machine.execute ~fuel:2_000_000 p,
          Spike_interp.Machine.execute ~fuel:2_000_000 optimized )
      with
      | Spike_interp.Machine.Halted a, Spike_interp.Machine.Halted b -> a = b
      | Spike_interp.Machine.Trapped Spike_interp.Machine.Out_of_fuel,
        Spike_interp.Machine.Trapped Spike_interp.Machine.Out_of_fuel ->
          true
      | _, _ -> false)

(* External-summary files must round-trip through their concrete syntax:
   the sets are rebuilt from rendered register names, so this exercises
   name/spelling agreement for every register, empty sets, and inputs that
   list the same register more than once (sets collapse them). *)
let arbitrary_summaries =
  let open QCheck.Gen in
  let reg = oneofl Spike_isa.Reg.all in
  let regset =
    (* duplicates on purpose: [of_list] must collapse them *)
    map Regset.of_list (list_size (int_bound 8) reg)
  in
  let entry i =
    map3
      (fun used defined killed ->
        (Printf.sprintf "ext_%d" i, { Psg.x_used = used; x_defined = defined; x_killed = killed }))
      regset regset regset
  in
  let gen =
    int_bound 8 >>= fun n ->
    let rec go i = if i >= n then return [] else
      entry i >>= fun e -> map (fun rest -> e :: rest) (go (i + 1))
    in
    go 0
  in
  let print entries = Spike_asm.Summaries.to_string entries in
  QCheck.make ~print gen

let prop_summaries_roundtrip =
  QCheck.Test.make ~name:"external summaries print/parse roundtrip" ~count:200
    arbitrary_summaries (fun entries ->
      let again =
        Spike_asm.Summaries.of_string (Spike_asm.Summaries.to_string entries)
      in
      List.length entries = List.length again
      && List.for_all2
           (fun (n1, (c1 : Psg.external_class)) (n2, (c2 : Psg.external_class)) ->
             String.equal n1 n2
             && Regset.equal c1.Psg.x_used c2.Psg.x_used
             && Regset.equal c1.Psg.x_defined c2.Psg.x_defined
             && Regset.equal c1.Psg.x_killed c2.Psg.x_killed)
           entries again)

let prop_dynamic_soundness =
  QCheck.Test.make ~name:"summaries sound on executions" ~count:25 arbitrary_params
    (fun params ->
      let p = Generator.generate params in
      let analysis = Analysis.run p in
      let _, violations = Spike_interp.Oracle.check ~fuel:2_000_000 analysis in
      violations = [])

let () =
  Alcotest.run "properties"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generated_valid;
            prop_psg_equals_reference;
            prop_branch_nodes_invariant;
            prop_flow_labels_figure6;
            prop_asm_roundtrip;
            prop_summaries_roundtrip;
            prop_opt_preserves_outcome;
            prop_dynamic_soundness;
          ] );
    ]
