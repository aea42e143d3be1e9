(* Determinism of the parallel analysis front-end.

   The per-routine stages (CFG build, initialization, PSG local pass) run
   on a domain pool, but their results must not depend on the parallelism
   degree: [Analysis.run ~jobs:k] must produce bit-identical summaries,
   call classes, PSG statistics — indeed a bit-identical PSG — and the
   same phase iteration counts for every k.  This suite pins that on the
   synthetic workloads and the checked-in example program. *)

open Spike_support
open Spike_core
open Spike_synth

let jobs_variants = [ 2; 4; 7 ]

let render_summaries (a : Analysis.t) =
  Format.asprintf "%a"
    (fun ppf summaries ->
      Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s) summaries)
    a.Analysis.summaries

let render_call_classes (a : Analysis.t) =
  Format.asprintf "%a"
    (fun ppf classes ->
      Array.iter
        (fun (c : Summary.call_class) ->
          Format.fprintf ppf "u=%a d=%a k=%a@." (Spike_support.Regset.pp ?name:None)
            c.Summary.used
            (Spike_support.Regset.pp ?name:None)
            c.Summary.defined
            (Spike_support.Regset.pp ?name:None)
            c.Summary.killed)
        classes)
    a.Analysis.call_classes

let render_psg_stats (a : Analysis.t) =
  Format.asprintf "%a" Psg_stats.pp (Psg_stats.of_psg a.Analysis.psg)

let render_psg (a : Analysis.t) = Format.asprintf "%a" Psg.pp a.Analysis.psg

let check_identical ?branch_nodes ?callee_saved_filter name program =
  let run jobs = Analysis.run ?branch_nodes ?callee_saved_filter ~jobs program in
  let base = run 1 in
  List.iter
    (fun jobs ->
      let tag what = Printf.sprintf "%s: %s at jobs=%d" name what jobs in
      let a = run jobs in
      Alcotest.(check int) (tag "jobs recorded") jobs a.Analysis.jobs;
      Alcotest.(check string)
        (tag "summaries")
        (render_summaries base) (render_summaries a);
      Alcotest.(check string)
        (tag "call classes")
        (render_call_classes base) (render_call_classes a);
      Alcotest.(check string)
        (tag "PSG stats")
        (render_psg_stats base) (render_psg_stats a);
      Alcotest.(check string) (tag "PSG dump") (render_psg base) (render_psg a);
      Alcotest.(check int)
        (tag "phase 1 iterations")
        base.Analysis.phase1_iterations a.Analysis.phase1_iterations;
      Alcotest.(check int)
        (tag "phase 2 iterations")
        base.Analysis.phase2_iterations a.Analysis.phase2_iterations)
    jobs_variants

let synth_program ~seed ~routines ~target_instructions =
  Generator.generate
    { Params.default with Params.seed; routines; target_instructions }

let test_synth_workloads () =
  List.iter
    (fun seed ->
      let program = synth_program ~seed ~routines:40 ~target_instructions:2500 in
      check_identical (Printf.sprintf "synth seed %d" seed) program)
    [ 1; 2; 3 ]

let test_calibrated_workload () =
  match Calibrate.find "gcc" with
  | None -> Alcotest.fail "gcc calibration row missing"
  | Some row ->
      let program = Generator.generate (Calibrate.params_of ~scale:0.02 row) in
      check_identical "calibrated gcc @ 2%" program

let test_config_variants () =
  let program = synth_program ~seed:11 ~routines:25 ~target_instructions:1500 in
  check_identical ~branch_nodes:false "without branch nodes" program;
  check_identical ~callee_saved_filter:false "without callee-saved filter" program

let fact_path =
  if Sys.file_exists "../examples/fact.s" then "../examples/fact.s"
  else "examples/fact.s"

let test_example_program () =
  let program = Spike_asm.Parser.program_of_file fact_path in
  check_identical "examples/fact.s" program

let test_reference_vs_scc_parallel () =
  (* The strongest cross-check: the SCC schedule running its phase
     fixpoints on 4 domains against the PSG-free reference fixpoint, which
     shares neither the schedule, the executor nor the PSG; and against
     the same schedule on 1 domain, for a bit-identical PSG. *)
  List.iter
    (fun (name, program) ->
      let serial = Analysis.run ~jobs:1 program in
      let par = Analysis.run ~jobs:4 program in
      Test_helpers.check_reference ~label:(name ^ " (j4): ") par;
      Alcotest.(check string)
        (name ^ ": PSG dump (j1 vs j4)")
        (render_psg serial) (render_psg par))
    [
      ("synth seed 5", synth_program ~seed:5 ~routines:60 ~target_instructions:3000);
      ("examples/fact.s", Spike_asm.Parser.program_of_file fact_path);
    ]

(* Summaries, call classes and iteration counts at jobs 1 and 4. *)
let check_serial_parallel name program =
  let serial = Analysis.run ~jobs:1 program in
  let par = Analysis.run ~jobs:4 program in
  let tag what = Printf.sprintf "%s: %s (j1 vs j4)" name what in
  Alcotest.(check string)
    (tag "summaries")
    (render_summaries serial) (render_summaries par);
  Alcotest.(check string)
    (tag "call classes")
    (render_call_classes serial) (render_call_classes par);
  Alcotest.(check int)
    (tag "phase 1 iterations")
    serial.Analysis.phase1_iterations par.Analysis.phase1_iterations;
  Alcotest.(check int)
    (tag "phase 2 iterations")
    serial.Analysis.phase2_iterations par.Analysis.phase2_iterations;
  serial

let test_large_recursion_knots () =
  (* One call-graph SCC of 2,000 routines, each with a CFG loop and every
     fifth with a chord across the ring: the sweep must reach the
     reference solution, identically at every jobs value. *)
  let knot = Test_helpers.recursion_ring ~chord:5 2_000 in
  let a = check_serial_parallel "2k knot" knot in
  let scc = Psg.call_scc a.Analysis.psg in
  Alcotest.(check int) "2k knot is one component" 2_000 (Scc.largest scc);
  Test_helpers.check_reference ~label:"2k knot: " a;
  (* A 100,000-routine ring: one component as deep as the program, which
     no part of the schedule may walk recursively. *)
  let ring = Test_helpers.recursion_ring 100_000 in
  let a = check_serial_parallel "100k ring" ring in
  Alcotest.(check int) "100k ring is one component" 100_000
    (Scc.largest (Psg.call_scc a.Analysis.psg))

let () =
  Alcotest.run "parallel-determinism"
    [
      ( "jobs-invariance",
        [
          Alcotest.test_case "synthetic workloads" `Quick test_synth_workloads;
          Alcotest.test_case "calibrated gcc" `Quick test_calibrated_workload;
          Alcotest.test_case "config variants" `Quick test_config_variants;
          Alcotest.test_case "example program" `Quick test_example_program;
          Alcotest.test_case "reference vs SCC parallel" `Quick
            test_reference_vs_scc_parallel;
          Alcotest.test_case "large recursion knots" `Quick
            test_large_recursion_knots;
        ] );
    ]
