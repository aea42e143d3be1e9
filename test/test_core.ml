(* Core analysis units: the per-edge dataflow, callee-saved save/restore
   detection, PSG statistics, call-site summary merging, and analysis
   behaviour on recursion, multiple entries, and unknown calls. *)

open Spike_support
open Spike_isa
open Spike_core
open Test_helpers

let regset = regset_testable

(* --- Edge_dataflow ------------------------------------------------------- *)

let test_edge_dataflow_algebra () =
  let a =
    {
      Edge_dataflow.may_use = rs [ 1 ];
      may_def = rs [ 2 ];
      must_def = rs [ 2; 3 ];
    }
  in
  let b =
    {
      Edge_dataflow.may_use = rs [ 4 ];
      may_def = rs [ 5 ];
      must_def = rs [ 3; 5 ];
    }
  in
  let j = Edge_dataflow.join a b in
  Alcotest.check regset "join may_use" (rs [ 1; 4 ]) j.Edge_dataflow.may_use;
  Alcotest.check regset "join may_def" (rs [ 2; 5 ]) j.Edge_dataflow.may_def;
  Alcotest.check regset "join must_def" (rs [ 3 ]) j.Edge_dataflow.must_def;
  (* Transfer: IN = UBD ∪ (OUT - DEF); DEFs accumulate. *)
  let out =
    {
      Edge_dataflow.may_use = rs [ 1; 2 ];
      may_def = rs [ 3 ];
      must_def = rs [ 3 ];
    }
  in
  let inn = Edge_dataflow.apply_block ~def:(rs [ 2; 4 ]) ~ubd:(rs [ 5 ]) out in
  Alcotest.check regset "in may_use" (rs [ 1; 5 ]) inn.Edge_dataflow.may_use;
  Alcotest.check regset "in may_def" (rs [ 2; 3; 4 ]) inn.Edge_dataflow.may_def;
  Alcotest.check regset "in must_def" (rs [ 2; 3; 4 ]) inn.Edge_dataflow.must_def

(* A loop inside a sink's region: Figure 6 must converge. *)
let test_edge_dataflow_loop () =
  let g =
    routine "g"
      [
        (Some "head", use r1);
        (None, li r2 1);
        (None, bne r2 "head");
        (None, ret);
      ]
  in
  let cfg = Spike_cfg.Cfg.build g in
  let defuse = Spike_cfg.Defuse.compute cfg in
  let exit_block = List.hd (Spike_cfg.Cfg.exit_blocks cfg) in
  let cut = Array.init (Spike_cfg.Cfg.block_count cfg) (fun b -> b = exit_block) in
  let sol = Edge_dataflow.create_scratch ~cfg ~defuse ~cut in
  Edge_dataflow.solve sol ~sink:exit_block;
  let at_entry = Edge_dataflow.in_of sol 0 in
  check_restricted "loop may_use" ~over:(rs [ r1; r2 ])
    (rs [ r1 ])
    at_entry.Edge_dataflow.may_use;
  check_restricted "loop must_def" ~over:(rs [ r1; r2 ])
    (rs [ r2 ])
    at_entry.Edge_dataflow.must_def

(* Every flow edge label equals the paper's per-edge subgraph solve.  The
   program is built to hit each case the per-sink solve must get right:
   - a two-entry routine whose second entry heads a loop;
   - a switch inside the loop whose table includes its own block (a branch
     source that is also its own sink);
   - two switch arms that merge before the exit (a branch label joins
     several dispatch targets);
   - an entry block that ends in a call (an entry source whose sink is its
     own block). *)
let test_edge_dataflow_figure6_oracle () =
  let leaf = routine "leaf" [ (None, li r0 1); (None, ret) ] in
  let multi =
    routine ~entries:[ "multi$a"; "multi$b" ] "multi"
      [
        (Some "multi$a", li r1 1);
        (Some "multi$b", use r1);
        (None, li r2 2);
        (Some "sw", switch r3 [ "sw"; "arm1"; "arm2"; "arm3" ]);
        (Some "arm1", call "leaf");
        (None, add r1 r1 r2);
        (None, bne r1 "multi$b");
        (None, br "sw");
        (Some "arm2", li r0 3);
        (Some "arm3", use r2);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "multi"); (None, call "leaf"); (None, ret) ] in
  let p = program ~main:"main" [ main; multi; leaf ] in
  List.iter
    (fun branch_nodes ->
      let cov = check_figure6_labels ~branch_nodes p in
      let covered what n =
        if n = 0 then Alcotest.failf "branch_nodes=%b: no %s edge" branch_nodes what
      in
      covered "flow" cov.edges;
      if branch_nodes then covered "branch-source" cov.branch_sources;
      covered "same-block" cov.same_block;
      covered "multi-entry" cov.multi_entry;
      covered "looping" cov.looping)
    [ true; false ]

(* --- Callee_saved --------------------------------------------------------- *)

let frame_push n = (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -n })
let frame_pop n = (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = n })
let save r off = (None, store r ~base:Reg.sp ~offset:off)
let restore r off = (None, load r ~base:Reg.sp ~offset:off)

let detected rows =
  let r = routine "f" rows in
  Callee_saved.saved_and_restored r (Spike_cfg.Cfg.build r)

let test_callee_saved_positive () =
  let got =
    detected
      [
        frame_push 16;
        save Reg.s0 0;
        save Reg.s1 8;
        (None, li Reg.s0 1);
        (None, li Reg.s1 2);
        restore Reg.s0 0;
        restore Reg.s1 8;
        frame_pop 16;
        (None, ret);
      ]
  in
  Alcotest.check regset "s0 and s1 detected" (rs [ Reg.s0; Reg.s1 ]) got;
  (* Without any frame adjustment at all. *)
  let got =
    detected [ save Reg.s3 0; (None, li Reg.s3 9); restore Reg.s3 0; (None, ret) ]
  in
  Alcotest.check regset "frameless idiom" (rs [ Reg.s3 ]) got

let test_callee_saved_negative () =
  let check_empty msg rows = Alcotest.check regset msg Regset.empty (detected rows) in
  check_empty "missing restore"
    [ frame_push 16; save Reg.s0 0; (None, li Reg.s0 1); frame_pop 16; (None, ret) ];
  check_empty "restore from wrong slot"
    [ frame_push 16; save Reg.s0 0; restore Reg.s0 8; frame_pop 16; (None, ret) ];
  check_empty "redefined after restore"
    [
      frame_push 16; save Reg.s0 0; restore Reg.s0 0; (None, li Reg.s0 3); frame_pop 16;
      (None, ret);
    ];
  check_empty "slot stored twice"
    [
      frame_push 16;
      save Reg.s0 0;
      (None, store r1 ~base:Reg.sp ~offset:0);
      restore Reg.s0 0;
      frame_pop 16;
      (None, ret);
    ];
  check_empty "saved after definition"
    [ frame_push 16; (None, li Reg.s0 1); save Reg.s0 0; restore Reg.s0 0; frame_pop 16;
      (None, ret) ];
  check_empty "unbalanced frame"
    [ frame_push 16; save Reg.s0 0; restore Reg.s0 0; frame_pop 8; (None, ret) ];
  check_empty "caller-saved register"
    [ frame_push 16; save Reg.t0 0; restore Reg.t0 0; frame_pop 16; (None, ret) ];
  (* An unknown jump can leave without restoring. *)
  check_empty "unknown jump"
    [
      frame_push 16;
      save Reg.s0 0;
      (None, beq r1 "out");
      restore Reg.s0 0;
      frame_pop 16;
      (None, ret);
      (Some "out", Insn.Jump_unknown { target = r2 });
    ]

let test_callee_saved_multi_exit () =
  let got =
    detected
      [
        frame_push 16;
        save Reg.s0 0;
        (None, li Reg.s0 1);
        (None, beq r1 "second");
        restore Reg.s0 0;
        frame_pop 16;
        (None, ret);
        (Some "second", load Reg.s0 ~base:Reg.sp ~offset:0);
        frame_pop 16;
        (None, ret);
      ]
  in
  Alcotest.check regset "restored at both exits" (rs [ Reg.s0 ]) got;
  (* One exit missing the restore disqualifies. *)
  let got =
    detected
      [
        frame_push 16;
        save Reg.s0 0;
        (None, beq r1 "second");
        restore Reg.s0 0;
        frame_pop 16;
        (None, ret);
        (Some "second", Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
        (None, ret);
      ]
  in
  Alcotest.check regset "one bad exit disqualifies" Regset.empty got

let test_callee_saved_sites () =
  let r =
    routine "f"
      [
        frame_push 16;
        save Reg.s2 8;
        (None, li Reg.s2 1);
        restore Reg.s2 8;
        frame_pop 16;
        (None, ret);
      ]
  in
  match Callee_saved.sites r (Spike_cfg.Cfg.build r) with
  | [ site ] ->
      Alcotest.(check int) "reg" Reg.s2 site.Callee_saved.reg;
      Alcotest.(check int) "save at 1" 1 site.Callee_saved.save_index;
      Alcotest.(check (list int)) "restore at 3" [ 3 ] site.Callee_saved.restore_indexes
  | sites -> Alcotest.failf "expected one site, got %d" (List.length sites)

(* --- §3.4 effect on summaries --------------------------------------------- *)

let test_filter_in_summaries () =
  let callee =
    routine "callee"
      [
        frame_push 16;
        save Reg.s0 0;
        (None, li Reg.s0 7);
        (None, store Reg.s0 ~base:Reg.sp ~offset:8);
        restore Reg.s0 0;
        frame_pop 16;
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "callee"); (None, ret) ] in
  let analysis = Analysis.run (program ~main:"main" [ main; callee ]) in
  let c = (Option.get (Analysis.summary_of analysis "callee")).Summary.call_class in
  Alcotest.(check bool) "s0 not call-killed" false (Regset.mem Reg.s0 c.Summary.killed);
  Alcotest.(check bool) "s0 not call-used" false (Regset.mem Reg.s0 c.Summary.used);
  Alcotest.(check bool) "s0 not call-defined" false
    (Regset.mem Reg.s0 c.Summary.defined)

(* --- Call-site summary merging -------------------------------------------- *)

let test_site_class_merging () =
  (* An indirect call that may reach f (defines t0, uses a0) or g (defines
     t1): used = union, defined = intersection, killed = union. *)
  let f = routine "f" [ (None, use Reg.a0); (None, li Reg.t0 1); (None, li Reg.v0 1); (None, ret) ] in
  let g = routine "g" [ (None, li Reg.t1 2); (None, li Reg.v0 2); (None, ret) ] in
  let main =
    routine "main"
      [
        (None, li Reg.pv 0);
        (None, call_indirect ~targets:[ "f"; "g" ] Reg.pv);
        (None, ret);
      ]
  in
  let analysis = Analysis.run (program ~main:"main" [ main; f; g ]) in
  let info = analysis.Analysis.psg.Psg.calls.(0) in
  let site = Analysis.site_class analysis info in
  Alcotest.(check bool) "a0 used (from f)" true (Regset.mem Reg.a0 site.Summary.used);
  Alcotest.(check bool) "v0 defined (both)" true (Regset.mem Reg.v0 site.Summary.defined);
  Alcotest.(check bool) "t0 not must-defined (only f)" false
    (Regset.mem Reg.t0 site.Summary.defined);
  Alcotest.(check bool) "t0 killed" true (Regset.mem Reg.t0 site.Summary.killed);
  Alcotest.(check bool) "t1 killed" true (Regset.mem Reg.t1 site.Summary.killed)

let test_unknown_site_class () =
  let main =
    routine "main" [ (None, li Reg.pv 0); (None, call_indirect Reg.pv); (None, ret) ]
  in
  let analysis = Analysis.run (program ~main:"main" [ main ]) in
  let info = analysis.Analysis.psg.Psg.calls.(0) in
  let site = Analysis.site_class analysis info in
  Alcotest.check regset "assumed used" Calling_standard.unknown_call_used
    site.Summary.used;
  Alcotest.check regset "assumed defined" Calling_standard.unknown_call_defined
    site.Summary.defined;
  Alcotest.check regset "assumed killed" Calling_standard.unknown_call_killed
    site.Summary.killed

(* --- Recursion ------------------------------------------------------------ *)

let test_recursion_converges () =
  (* Mutually recursive even/odd with a conditional escape. *)
  let even =
    routine "even"
      [
        (None, beq r1 "base");
        (None, call "odd");
        (None, ret);
        (Some "base", li r2 1);
        (None, ret);
      ]
  in
  let odd =
    routine "odd"
      [
        (None, beq r1 "base");
        (None, call "even");
        (None, ret);
        (Some "base", li r3 1);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "even"); (None, ret) ] in
  let analysis = Analysis.run (program ~main:"main" [ main; even; odd ]) in
  let even_class = (Option.get (Analysis.summary_of analysis "even")).Summary.call_class in
  check_restricted "even may-kill r2 r3" ~over:(rs [ r1; r2; r3 ])
    (rs [ r2; r3 ])
    even_class.Summary.killed;
  check_restricted "even uses r1" ~over:(rs [ r1; r2; r3 ])
    (rs [ r1 ])
    even_class.Summary.used;
  (* Nothing is must-defined: each routine can return from its base case
     defining only one of r2/r3. *)
  check_restricted "even must-def" ~over:(rs [ r2; r3 ]) Regset.empty
    even_class.Summary.defined;
  (* Agreement with the reference holds on recursion too. *)
  let reference = Spike_reference.Reference.run analysis.Analysis.program in
  Array.iteri
    (fun r (c : Summary.call_class) ->
      let d = reference.Spike_reference.Reference.call_classes.(r) in
      Alcotest.check regset "recursive used" d.Summary.used c.Summary.used;
      Alcotest.check regset "recursive defined" d.Summary.defined c.Summary.defined;
      Alcotest.check regset "recursive killed" d.Summary.killed c.Summary.killed)
    analysis.Analysis.call_classes

let test_deep_call_chain () =
  (* A 100_000-deep linear call chain.  The call-graph SCC pass walks one
     DFS path the full depth of the program here — a recursive
     implementation would need a native stack frame per routine, so it is
     required to be iterative. *)
  let depth = 100_000 in
  let name i = Printf.sprintf "f%d" i in
  let routines =
    List.init depth (fun i ->
        if i = depth - 1 then routine (name i) [ (None, li r2 1); (None, ret) ]
        else routine (name i) [ (None, call (name (i + 1))); (None, ret) ])
  in
  let p = program ~main:(name 0) routines in
  let a = Analysis.run p in
  (* The leaf's definition propagates the whole way up as a may-kill. *)
  let c = (Option.get (Analysis.summary_of a (name 0))).Summary.call_class in
  check_restricted "chain killed" ~over:(rs [ r2 ]) (rs [ r2 ]) c.Summary.killed;
  let scc = Psg.call_scc a.Analysis.psg in
  Alcotest.(check int) "chain is acyclic" depth scc.Scc.count

let test_reference_scc_schedule_agree () =
  (* The SCC schedule must reach the PSG-free reference fixpoint — call
     classes, live-at-entry and live-at-exit — on straight-line call
     structure and on recursion knots alike. *)
  let even =
    routine "even"
      [
        (None, beq r1 "base");
        (None, call "odd");
        (None, ret);
        (Some "base", li r2 1);
        (None, ret);
      ]
  in
  let odd =
    routine "odd"
      [
        (None, beq r1 "base");
        (None, call "even");
        (None, ret);
        (Some "base", li r3 1);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "even"); (None, ret) ] in
  List.iter
    (fun (label, p) -> check_reference ~label:(label ^ ": ") (Analysis.run p))
    [
      ("figure2", figure2_program ());
      ("mutual recursion", program ~main:"main" [ main; even; odd ]);
    ]

let test_sched_drain () =
  (* A mark ahead of the cursor pops in the same sweep, one behind it in
     the next; the drain stops after the first sweep that pops nothing and
     leaves the bitset clear. *)
  let sweeps = Spike_obs.Metrics.counter "test.sched.sweeps" in
  let marked = Bytes.make 4 '\000' in
  let mark id = Bytes.set marked id '\001' in
  List.iter mark [ 0; 3 ];
  let popped = ref [] in
  let process id =
    popped := id :: !popped;
    (* 3 marks 1 (ahead of it); 1 marks 2 (behind it) once. *)
    if id = 3 then mark 1;
    if id = 1 && not (List.mem 2 !popped) then mark 2
  in
  Spike_obs.Metrics.enable ();
  let pops = Sched.drain ~sweeps [| 2; 3; 1; 0 |] marked process in
  let snap = Spike_obs.Metrics.snapshot () in
  Spike_obs.Metrics.disable ();
  Alcotest.(check (list int)) "pop order" [ 3; 1; 0; 2 ] (List.rev !popped);
  Alcotest.(check int) "pops" 4 pops;
  Alcotest.(check bool) "sweeps: two that pop, one empty" true
    (Spike_obs.Metrics.find snap "test.sched.sweeps"
    = Some (Spike_obs.Metrics.Count 3));
  Alcotest.(check string) "marks cleared" "\000\000\000\000"
    (Bytes.to_string marked)

(* --- Analysis determinism / misc ------------------------------------------ *)

let test_analysis_deterministic () =
  let p = figure2_program () in
  let a = Analysis.run p and b = Analysis.run p in
  Array.iteri
    (fun r (c : Summary.call_class) ->
      let d = b.Analysis.call_classes.(r) in
      Alcotest.check regset "used" d.Summary.used c.Summary.used;
      Alcotest.check regset "defined" d.Summary.defined c.Summary.defined;
      Alcotest.check regset "killed" d.Summary.killed c.Summary.killed)
    a.Analysis.call_classes;
  Alcotest.(check int) "same phase1 iterations" b.Analysis.phase1_iterations
    a.Analysis.phase1_iterations

let test_psg_stats () =
  let analysis = Analysis.run (figure2_program ()) in
  let stats = Psg_stats.of_psg analysis.Analysis.psg in
  Alcotest.(check int) "entries = routines" 4 stats.Psg_stats.entry_nodes;
  Alcotest.(check int) "calls" 4 stats.Psg_stats.call_nodes;
  Alcotest.(check int) "returns" 4 stats.Psg_stats.return_nodes;
  Alcotest.(check int) "call-return edges" 4 stats.Psg_stats.call_return_edges;
  Alcotest.(check int) "total nodes" (Psg.node_count analysis.Analysis.psg)
    stats.Psg_stats.nodes;
  Alcotest.(check int) "edge split"
    (stats.Psg_stats.flow_edges + stats.Psg_stats.call_return_edges)
    stats.Psg_stats.edges

let test_multi_entry_summaries () =
  let two =
    routine ~entries:[ "two$a"; "two$b" ] "two"
      [ (Some "two$a", li r1 1); (Some "two$b", li r2 2); (None, ret) ]
  in
  let main = routine "main" [ (None, call "two"); (None, ret) ] in
  let analysis = Analysis.run (program ~main:"main" [ main; two ]) in
  let s = Option.get (Analysis.summary_of analysis "two") in
  Alcotest.(check int) "two live-at-entry sets" 2 (List.length s.Summary.live_at_entry);
  (* The primary entry sees both defs, the secondary only the second. *)
  let c = s.Summary.call_class in
  check_restricted "primary must-def" ~over:(rs [ r1; r2 ]) (rs [ r1; r2 ])
    c.Summary.defined;
  let secondary = List.nth analysis.Analysis.psg.Psg.entry_nodes.(1) 1 in
  let node = analysis.Analysis.psg.Psg.nodes.(secondary) in
  check_restricted "secondary must-def" ~over:(rs [ r1; r2 ]) (rs [ r2 ]) node.Psg.must_def

(* The summary text, as `spike analyze --summaries-out` writes it: pinned
   byte for byte (two entries, two exits, an empty set). *)
let test_summary_text () =
  let two =
    routine ~entries:[ "two$a"; "two$b" ] "two"
      [
        (Some "two$a", li r1 1);
        (Some "two$b", li r2 2);
        (None, beq r1 "out");
        (None, ret);
        (Some "out", add r0 r1 r2);
        (None, ret);
      ]
  in
  let leaf = routine "leaf" [ (None, ret) ] in
  let main =
    routine "main" [ (None, call "two"); (None, call "leaf"); (None, use r0); (None, ret) ]
  in
  let analysis = Analysis.run (program ~main:"main" [ main; two; leaf ]) in
  let text =
    Format.asprintf "%a"
      (fun ppf -> Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s))
      analysis.Analysis.summaries
  in
  Alcotest.(check string) "summaries"
    "main:\n\
    \  call-used={v0, sp}\n\
    \  call-defined={t0, t1, ra}\n\
    \  call-killed={v0, t0, t1, ra}\n\
    \  live-at-entry(main$entry)={v0, sp, f0}\n\
    \  live-at-exit(B2)={v0, f0}\n\
     two:\n\
    \  call-used={ra}\n\
    \  call-defined={t0, t1}\n\
    \  call-killed={v0, t0, t1}\n\
    \  live-at-entry(two$a)={v0, ra, sp, f0}\n\
    \  live-at-entry(two$b)={v0, t0, ra, sp, f0}\n\
    \  live-at-exit(B2)={v0, sp, f0}\n\
    \  live-at-exit(B3)={v0, sp, f0}\n\
     leaf:\n\
    \  call-used={ra}\n\
    \  call-defined={}\n\
    \  call-killed={}\n\
    \  live-at-entry(leaf$entry)={v0, ra, sp, f0}\n\
    \  live-at-exit(B0)={v0, ra, sp, f0}\n"
    text

let () =
  Alcotest.run "core-units"
    [
      ( "edge-dataflow",
        [
          Alcotest.test_case "algebra" `Quick test_edge_dataflow_algebra;
          Alcotest.test_case "loop convergence" `Quick test_edge_dataflow_loop;
          Alcotest.test_case "figure-6 oracle" `Quick test_edge_dataflow_figure6_oracle;
        ] );
      ( "callee-saved",
        [
          Alcotest.test_case "positive" `Quick test_callee_saved_positive;
          Alcotest.test_case "negative" `Quick test_callee_saved_negative;
          Alcotest.test_case "multi-exit" `Quick test_callee_saved_multi_exit;
          Alcotest.test_case "sites" `Quick test_callee_saved_sites;
          Alcotest.test_case "filter in summaries" `Quick test_filter_in_summaries;
        ] );
      ( "call-sites",
        [
          Alcotest.test_case "target merging" `Quick test_site_class_merging;
          Alcotest.test_case "unknown assumption" `Quick test_unknown_site_class;
        ] );
      ( "fixpoints",
        [
          Alcotest.test_case "recursion" `Quick test_recursion_converges;
          Alcotest.test_case "deep call chain" `Quick test_deep_call_chain;
          Alcotest.test_case "reference vs SCC schedule" `Quick
            test_reference_scc_schedule_agree;
          Alcotest.test_case "sweep drain" `Quick test_sched_drain;
          Alcotest.test_case "determinism" `Quick test_analysis_deterministic;
        ] );
      ( "structure",
        [
          Alcotest.test_case "psg stats" `Quick test_psg_stats;
          Alcotest.test_case "multiple entries" `Quick test_multi_entry_summaries;
          Alcotest.test_case "summary text" `Quick test_summary_text;
        ] );
    ]
