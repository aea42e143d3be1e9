(* The per-layer metrics of a traced run, named <layer>.<name> after the
   library's modules.  Times, allocations and counts are per op, medians
   over the traced ops; retained sizes come from the memory pass.  A layer
   the workload's op does not run as its own span reads 0. *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mb = Spike_support.Memmeter.megabytes

(* Spans whose summed seconds per op are reported as <span>_s. *)
let timed =
  [ "asm.parse"; "asm.print"; "ir.validate"; "cfg.build"; "cfg.defuse"; "core.callee_saved";
    "core.psg_build"; "core.sched"; "core.phase1"; "core.phase2"; "core.extract";
    "core.warm_analysis"; "store.load"; "store.save"; "opt.spill"; "opt.save_restore";
    "opt.liveness"; "opt.dce"; "opt.rerun" ]

(* Spans whose allocated words per op are reported as <span>_alloc_mw. *)
let allocating = [ "asm.parse"; "core.psg_build"; "core.phase1"; "store.load" ]

(* Metric, and the span whose result the memory pass measures. *)
let retained =
  [ ("asm.program_retained_mb", "asm.parse"); ("cfg.retained_mb", "cfg.build");
    ("cfg.defuse_retained_mb", "cfg.defuse"); ("core.psg_retained_mb", "core.psg_build");
    ("core.sched_retained_mb", "core.sched"); ("core.summary_retained_mb", "core.extract") ]

let metrics (size : Workload.size) ~op_s ~traced_secs ~retained:retained_bytes =
  let ops = List.init (List.length traced_secs) Fun.id in
  let per_op f = median (List.map f ops) in
  let secs name = per_op (fun i -> let s, _, _ = Span.totals i name in s) in
  let spans name = per_op (fun i -> let _, _, n = Span.totals i name in float_of_int n) in
  let counted name = per_op (fun i -> Span.counted i name) in
  let parse_s = secs "asm.parse" in
  let lookups = counted "store.lookups" in
  List.map (fun name -> (name ^ "_s", secs name, "s")) timed
  @ List.map
      (fun name ->
        (name ^ "_alloc_mw", per_op (fun i -> let _, w, _ = Span.totals i name in w /. 1e6), "Mwords"))
      allocating
  @ List.map
      (fun (metric, span) -> (metric, mb (retained_bytes span), "MB"))
      retained
  @ [
      ( "asm.parse_mb_per_s",
        (if parse_s > 0.0 then mb size.Workload.text_bytes /. parse_s else 0.0),
        "MB/s" );
      ("core.psg_nodes", counted "core.psg_nodes", "count");
      ("core.psg_edges", counted "core.psg_edges", "count");
      ("core.phase1_iters", counted "core.phase1_iters", "count");
      ("core.phase2_iters", counted "core.phase2_iters", "count");
      ("store.file_mb", mb (int_of_float (counted "store.file_bytes")), "MB");
      ("store.hit_ratio", (if lookups > 0.0 then counted "store.hits" /. lookups else 0.0), "ratio");
      ("opt.reruns", spans "opt.rerun", "count");
      ("opt.dce_rounds", spans "opt.dce", "count");
      ("traced_op_s", median traced_secs, "s");
      ("trace_overhead", median traced_secs /. op_s, "ratio");
      ("trace_coverage", per_op Span.coverage, "ratio");
    ]
