(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on calibrated synthetic workloads, and runs a
   Bechamel micro-benchmark per table/figure code path.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- --quick      # everything at 10% scale
     dune exec bench/main.exe -- --scale 0.5
     dune exec bench/main.exe -- --table 4    # a single table
     dune exec bench/main.exe -- --figure 13
     dune exec bench/main.exe -- --jobs 4     # domains for the analysis front-end
     dune exec bench/main.exe -- --scaling    # jobs = 1/2/4/8 study + BENCH_psg.json
     dune exec bench/main.exe -- --no-bechamel *)

open Spike_synth

let scale = ref 1.0
let only_table = ref None
let only_figure = ref None
let only_ablations = ref false
let only_layout = ref false
let only_scaling = ref false
let run_bechamel = ref true
let jobs = ref None
let scaling_out = ref "BENCH_psg.json"

let args =
  [
    ("--scale", Arg.Set_float scale, "FACTOR scale workload sizes (default 1.0)");
    ("--quick", Arg.Unit (fun () -> scale := 0.1), " shorthand for --scale 0.1");
    ("--table", Arg.Int (fun n -> only_table := Some n), "N print only table N (1-5)");
    ( "--figure",
      Arg.Int (fun n -> only_figure := Some n),
      "N print only figure N (1, 13, 14, 15)" );
    ("--ablations", Arg.Set only_ablations, " print only the ablation studies");
    ("--layout", Arg.Set only_layout, " print only the code-layout study");
    ( "--scaling",
      Arg.Set only_scaling,
      " print only the multicore scaling study (writes BENCH_psg.json)" );
    ( "--scaling-out",
      Arg.Set_string scaling_out,
      "PATH where the scaling study writes its JSON (default BENCH_psg.json)" );
    ( "--jobs",
      Arg.Int (fun n -> jobs := Some n),
      "N domains for the analysis front-end (default: recommended count)" );
    ("--no-bechamel", Arg.Clear run_bechamel, " skip the Bechamel micro-benchmarks");
  ]

let narrowed () = !only_ablations || !only_layout || !only_scaling

let wants_table n =
  match (!only_table, !only_figure, narrowed ()) with
  | None, None, false -> true
  | Some t, _, _ -> t = n
  | None, _, _ -> false

let wants_figure n =
  match (!only_table, !only_figure, narrowed ()) with
  | None, None, false -> true
  | _, Some f, _ -> f = n
  | Some _, None, _ -> false
  | None, None, true -> false

let wants_ablations () =
  match (!only_table, !only_figure) with
  | None, None -> !only_ablations || not (narrowed ())
  | _ -> !only_ablations

let wants_layout () =
  match (!only_table, !only_figure) with
  | None, None -> !only_layout || not (narrowed ())
  | _ -> !only_layout

let wants_scaling () =
  match (!only_table, !only_figure) with
  | None, None -> !only_scaling || not (narrowed ())
  | _ -> !only_scaling

let measurements () =
  List.map
    (fun row ->
      Format.eprintf "measuring %-10s ...@?" row.Calibrate.name;
      let t0 = Unix.gettimeofday () in
      let m = Measure.run_benchmark ~scale:!scale ?jobs:!jobs row in
      Format.eprintf " done (%.1fs)@." (Unix.gettimeofday () -. t0);
      m)
    Calibrate.benchmarks

let sweep () =
  match Calibrate.find "gcc" with
  | None -> []
  | Some gcc ->
      List.map
        (fun factor ->
          (factor, Measure.run_benchmark ~scale:(factor *. !scale) ?jobs:!jobs gcc))
        [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* --- Bechamel micro-benchmarks: one Test.make per table/figure --------- *)

let bechamel_tests () =
  let open Bechamel in
  let small = Calibrate.params_of ~scale:0.02 (Option.get (Calibrate.find "gcc")) in
  let program = Generator.generate small in
  let analysis = Spike_core.Analysis.run program in
  let cfgs = analysis.Spike_core.Analysis.cfgs in
  let defuses = analysis.Spike_core.Analysis.defuses in
  let filters = analysis.Spike_core.Analysis.psg.Spike_core.Psg.entry_filter in
  let exe = Generator.generate { Params.default with Params.seed = 5 } in
  let exe_analysis = Spike_core.Analysis.run exe in
  [
    Test.make ~name:"table2/full-analysis" (Staged.stage (fun () ->
        ignore (Spike_core.Analysis.run program)));
    Test.make ~name:"table3/cfg-and-defuse" (Staged.stage (fun () ->
        Array.iter
          (fun r -> ignore (Spike_cfg.Defuse.compute (Spike_cfg.Cfg.build r)))
          (Spike_ir.Program.routines program)));
    Test.make ~name:"table4/psg-without-branch-nodes" (Staged.stage (fun () ->
        ignore
          (Spike_core.Psg_build.build ~branch_nodes:false ~entry_filters:filters
             program cfgs defuses)));
    Test.make ~name:"table5/supergraph" (Staged.stage (fun () ->
        ignore (Spike_supercfg.Supercfg.build program cfgs)));
    Test.make ~name:"figure13/psg+phases" (Staged.stage (fun () ->
        let psg =
          Spike_core.Psg_build.build ~entry_filters:filters program cfgs defuses
        in
        let sched = Spike_core.Sched.make psg in
        ignore (Spike_core.Phase1.run ~sched psg);
        ignore (Spike_core.Phase2.run ~sched psg)));
    Test.make ~name:"figure14/analysis-2x-scale" (Staged.stage (fun () ->
        let p =
          Generator.generate
            (Calibrate.params_of ~scale:0.04 (Option.get (Calibrate.find "gcc")))
        in
        ignore (Spike_core.Analysis.run p)));
    Test.make ~name:"figure15/memory-measure" (Staged.stage (fun () ->
        ignore (Spike_support.Memmeter.measure (fun () -> Spike_core.Analysis.run program))));
    Test.make ~name:"figure1/optimize" (Staged.stage (fun () ->
        ignore (Spike_opt.Opt.run exe_analysis)));
  ]

let run_bechamel_suite ppf =
  let open Bechamel in
  Format.fprintf ppf "@.=== Bechamel micro-benchmarks (one per table/figure)@.";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  let tests = bechamel_tests () in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Printf.sprintf "%12.0f ns/run" e
            | Some _ | None -> "(no estimate)"
          in
          Format.fprintf ppf "%-40s %s@." name estimate)
        analyzed)
    tests

let () =
  Arg.parse args (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "bench";
  let ppf = Format.std_formatter in
  Format.fprintf ppf "Spike interprocedural dataflow analysis - benchmark harness@.";
  Format.fprintf ppf "(workload scale %.2f; paper numbers from a 466MHz Alpha 21164)@."
    !scale;
  if wants_table 1 then Tables.table1 ppf;
  let need_measurements =
    List.exists wants_table [ 2; 3; 4; 5 ] || List.exists wants_figure [ 13; 14; 15 ]
  in
  let ms = if need_measurements then measurements () else [] in
  if wants_table 2 then Tables.table2 ppf ms;
  if wants_table 3 then Tables.table3 ppf ms;
  if wants_table 4 then Tables.table4 ppf ms;
  if wants_table 5 then Tables.table5 ppf ms;
  if wants_figure 13 then
    Tables.figure13 ppf
      (List.filter
         (fun (m : Measure.t) ->
           String.equal m.Measure.row.Calibrate.suite "PC"
           || String.equal m.Measure.row.Calibrate.name "gcc")
         ms);
  let sw =
    if wants_figure 14 || wants_figure 15 then sweep () else []
  in
  if wants_figure 14 then Tables.figure14 ppf ms sw;
  if wants_figure 15 then Tables.figure15 ppf ms sw;
  if wants_figure 1 then Figure1.print ppf;
  if wants_ablations () then Ablations.print ppf;
  if wants_layout () then Layout_bench.print ppf;
  if wants_scaling () then Scaling.print ~json_path:!scaling_out ppf ~scale:!scale ();
  if !run_bechamel && !only_table = None && !only_figure = None && not (narrowed ())
  then run_bechamel_suite ppf
