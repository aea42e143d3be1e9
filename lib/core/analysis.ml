open Spike_support
open Spike_ir
open Spike_cfg

type t = {
  program : Program.t;
  cfgs : Cfg.t array;
  defuses : Defuse.t array;
  psg : Psg.t;
  call_classes : Summary.call_class array;
  summaries : Summary.t array;
  timer : Timer.t;
  phase1_iterations : int;
  phase2_iterations : int;
  branch_nodes : bool;
  externals : string -> Psg.external_class option;
  callee_saved_filter : bool;
  jobs : int;
  phase_sched : [ `Scc ];
  reused_routines : int;
  warm_capture : Warm.routine_art array option;
}

let stage_cfg_build = "CFG Build"
let stage_init = "Initialization"
let stage_psg_build = "PSG Build"
let stage_sched = "SCC Sched"
let stage_phase1 = "Phase 1"
let stage_phase2 = "Phase 2"

(* Observability.  Every stage is both a timer bucket and a trace span,
   followed by a heap-footprint gauge sample; the PSG composition
   counters mirror Figures 14-15's size-by-label breakdown. *)
let c_runs = Spike_obs.Metrics.counter "analysis.runs"
let c_routines = Spike_obs.Metrics.counter "analysis.routines"

let psg_counters =
  [
    (Spike_obs.Metrics.counter "psg.nodes", fun (s : Psg_stats.t) -> s.nodes);
    (Spike_obs.Metrics.counter "psg.nodes.entry", fun s -> s.entry_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.exit", fun s -> s.exit_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.call", fun s -> s.call_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.return", fun s -> s.return_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.branch", fun s -> s.branch_nodes);
    ( Spike_obs.Metrics.counter "psg.nodes.unknown_exit",
      fun s -> s.unknown_exit_nodes );
    (Spike_obs.Metrics.counter "psg.edges", fun s -> s.edges);
    (Spike_obs.Metrics.counter "psg.edges.flow", fun s -> s.flow_edges);
    ( Spike_obs.Metrics.counter "psg.edges.call_return",
      fun s -> s.call_return_edges );
  ]

let heap_gauge =
  let gauges = Hashtbl.create 8 in
  fun stage ->
    match Hashtbl.find_opt gauges stage with
    | Some g -> g
    | None ->
        let g = Spike_obs.Metrics.gauge ("heap.bytes.after." ^ stage) in
        Hashtbl.add gauges stage g;
        g

(* A stage is one timer bucket, one span, and one heap sample. *)
let record_stage timer stage f =
  let result = Timer.record timer stage (fun () -> Spike_obs.Trace.with_span stage f) in
  if Spike_obs.Metrics.enabled () then
    Spike_obs.Metrics.set_gauge (heap_gauge stage)
      (float_of_int (Memmeter.sample_bytes ()));
  result

(* Warm counters: how much front-end work a plan saved vs. redid. *)
let c_reused = Spike_obs.Metrics.counter "warm.routines.reused"
let c_rebuilt = Spike_obs.Metrics.counter "warm.routines.rebuilt"

(* The condensation schedule both phases share.  Built once per run —
   it only depends on the call graph — and timed as its own stage. *)
let build_sched ~pool ~timer psg =
  record_stage timer stage_sched (fun () -> Sched.make ~pool psg)

let run_cold ~branch_nodes ~externals ~callee_saved_filter ~jobs ~pool ~timer
    program =
  let routines = Program.routines program in
  let cfgs =
    record_stage timer stage_cfg_build (fun () ->
        Pool.parallel_map_array pool
          (fun r -> Spike_obs.Trace.with_span "cfg.build" (fun () -> Cfg.build r))
          routines)
  in
  let defuses, entry_filters =
    record_stage timer stage_init (fun () ->
        let defuses =
          Pool.parallel_map_array pool
            (fun cfg ->
              Spike_obs.Trace.with_span "defuse.compute" (fun () ->
                  Defuse.compute cfg))
            cfgs
        in
        let filters =
          if callee_saved_filter then
            Pool.parallel_init pool (Array.length cfgs) (fun r ->
                Spike_obs.Trace.with_span "callee_saved.filter" (fun () ->
                    Callee_saved.saved_and_restored routines.(r) cfgs.(r)))
          else Array.map (fun _ -> Regset.empty) cfgs
        in
        (defuses, filters))
  in
  let psg =
    record_stage timer stage_psg_build (fun () ->
        Psg_build.build ~branch_nodes ~entry_filters ~externals ~pool program
          cfgs defuses)
  in
  if Spike_obs.Metrics.enabled () then begin
    let stats = Psg_stats.of_psg psg in
    List.iter (fun (c, get) -> Spike_obs.Metrics.add c (get stats)) psg_counters
  end;
  (* Phases 1 and 2 are global fixpoints over the whole PSG; they run
     one call-graph component at a time, with independent components
     dispatched to the pool. *)
  let sched = build_sched ~pool ~timer psg in
  let phase1_iterations, call_classes =
    record_stage timer stage_phase1 (fun () ->
        let iterations = Phase1.run ~sched psg in
        (iterations, Summary.extract_call_classes psg))
  in
  let phase2_iterations, summaries =
    record_stage timer stage_phase2 (fun () ->
        let iterations = Phase2.run ~sched psg in
        (iterations, Summary.extract psg call_classes))
  in
  {
    program;
    cfgs;
    defuses;
    psg;
    call_classes;
    summaries;
    timer;
    phase1_iterations;
    phase2_iterations;
    branch_nodes;
    externals;
    callee_saved_filter;
    jobs;
    phase_sched = `Scc;
    reused_routines = 0;
    warm_capture = None;
  }

(* The incremental path: per-routine front-end artifacts come from the
   plan when present, are rebuilt when not.  After the rebuild,
   {!Warm.solutions} lifts the cached solutions of any rebuilt routine
   whose equation system turned out unchanged; both phases then restart
   only the remaining dirty routines, restoring converged values outside
   the invalidation cones the planners close.  With an all-cold plan the
   cones cover every node, so this degenerates to the cold run — which is
   how [capture]-only runs keep bit-identical results. *)
let run_warm ~branch_nodes ~externals ~callee_saved_filter ~jobs ~pool ~timer
    ~(plan : Warm.plan) ~capture program =
  let routines = Program.routines program in
  let n = Array.length routines in
  let reused_routines = Warm.reused plan in
  Spike_obs.Metrics.add c_reused reused_routines;
  Spike_obs.Metrics.add c_rebuilt (n - reused_routines);
  let art r = plan.Warm.arts.(r) in
  let cfgs =
    record_stage timer stage_cfg_build (fun () ->
        Pool.parallel_init pool n (fun r ->
            match art r with
            | Some a -> a.Warm.a_cfg
            | None ->
                Spike_obs.Trace.with_span "cfg.build" (fun () ->
                    Cfg.build routines.(r))))
  in
  let defuses, entry_filters =
    record_stage timer stage_init (fun () ->
        let defuses =
          Pool.parallel_init pool n (fun r ->
              match art r with
              | Some a -> a.Warm.a_defuse
              | None ->
                  Spike_obs.Trace.with_span "defuse.compute" (fun () ->
                      Defuse.compute cfgs.(r)))
        in
        let filters =
          if callee_saved_filter then
            Pool.parallel_init pool n (fun r ->
                match art r with
                | Some a -> a.Warm.a_filter
                | None ->
                    Spike_obs.Trace.with_span "callee_saved.filter" (fun () ->
                        Callee_saved.saved_and_restored routines.(r) cfgs.(r)))
          else Array.make n Regset.empty
        in
        (defuses, filters))
  in
  let locals, psg =
    record_stage timer stage_psg_build (fun () ->
        let resolve_targets = Psg_build.resolver ~externals program in
        let locals =
          Pool.parallel_init pool n (fun r ->
              match art r with
              | Some a -> a.Warm.a_local
              | None ->
                  Spike_obs.Trace.with_span "psg.local_pass" (fun () ->
                      Psg_build.local_pass ~branch_nodes ~resolve_targets r
                        cfgs.(r) defuses.(r)))
        in
        let psg =
          Spike_obs.Trace.with_span "psg.stitch" (fun () ->
              Psg_build.stitch ~entry_filters program locals)
        in
        (locals, psg))
  in
  if Spike_obs.Metrics.enabled () then begin
    let stats = Psg_stats.of_psg psg in
    List.iter (fun (c, get) -> Spike_obs.Metrics.add c (get stats)) psg_counters
  end;
  let node_offset = Psg_build.node_offsets locals in
  let call_offset = Psg_build.call_offsets locals in
  let sols, exit_seeds =
    Spike_obs.Trace.with_span "warm.lift" (fun () ->
        Warm.solutions plan ~program ~locals ~filters:entry_filters)
  in
  let sched = build_sched ~pool ~timer psg in
  let phase1_iterations, call_classes, p1_nodes, p1_cr =
    record_stage timer stage_phase1 (fun () ->
        let w1 =
          Spike_obs.Trace.with_span "warm.phase1_plan" (fun () ->
              Warm.phase1_plan psg ~sols ~node_offset ~call_offset)
        in
        let iterations = Phase1.run ~warm:w1 ~sched psg in
        let p1_nodes, p1_cr = Warm.snapshot_phase1 psg in
        (iterations, Summary.extract_call_classes psg, p1_nodes, p1_cr))
  in
  let phase2_iterations, summaries =
    record_stage timer stage_phase2 (fun () ->
        let w2 =
          Spike_obs.Trace.with_span "warm.phase2_plan" (fun () ->
              Warm.phase2_plan psg ~sols ~exit_seeds ~node_offset ~call_offset
                ~p1_cr)
        in
        let iterations = Phase2.run ~warm:w2 ~sched psg in
        (iterations, Summary.extract psg call_classes))
  in
  let warm_capture =
    if not capture then None
    else
      Some
        (Spike_obs.Trace.with_span "warm.capture" (fun () ->
             Warm.capture ~cfgs ~defuses ~filters:entry_filters ~locals ~p1_nodes
               ~p1_cr ~p2_live:(Warm.snapshot_live psg) ~node_offset ~call_offset))
  in
  {
    program;
    cfgs;
    defuses;
    psg;
    call_classes;
    summaries;
    timer;
    phase1_iterations;
    phase2_iterations;
    branch_nodes;
    externals;
    callee_saved_filter;
    jobs;
    phase_sched = `Scc;
    reused_routines;
    warm_capture;
  }

let run ?(branch_nodes = true) ?(externals = fun _ -> None)
    ?(callee_saved_filter = true) ?jobs ?warm ?(capture = false) program =
  let jobs =
    match jobs with Some j -> max 1 (min j 64) | None -> Pool.default_jobs ()
  in
  Pool.with_pool ~jobs (fun pool ->
      let timer = Timer.create () in
      Spike_obs.Metrics.incr c_runs;
      Spike_obs.Metrics.add c_routines (Program.routine_count program);
      match (warm, capture) with
      | None, false ->
          run_cold ~branch_nodes ~externals ~callee_saved_filter ~jobs ~pool
            ~timer program
      | _ ->
          let plan =
            match warm with Some p -> p | None -> Warm.cold program
          in
          run_warm ~branch_nodes ~externals ~callee_saved_filter ~jobs ~pool
            ~timer ~plan ~capture program)

let rerun t program =
  run ~branch_nodes:t.branch_nodes ~externals:t.externals
    ~callee_saved_filter:t.callee_saved_filter ~jobs:t.jobs program

let summary_of t name = Summary.find t.summaries t.program name
let site_class t info = Summary.site_class t.psg t.call_classes info
let total_seconds t = Timer.total t.timer

let pp_times ppf t =
  let total = total_seconds t in
  Format.fprintf ppf "@[<v>total dataflow time: %.4fs" total;
  List.iter
    (fun (stage, secs) ->
      Format.fprintf ppf "@ %-16s %.4fs (%4.1f%%)" stage secs
        (if total > 0.0 then 100.0 *. secs /. total else 0.0))
    (Timer.stages t.timer);
  Format.fprintf ppf "@]"
