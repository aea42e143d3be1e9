(** The end-to-end interprocedural dataflow analysis driver.

    Runs the five stages the paper times separately (Figure 13):
    {ol {- {b CFG Build} — per-routine control-flow graphs;}
        {- {b Initialization} — per-block DEF/UBD sets and the §3.4
           callee-saved save/restore detection;}
        {- {b PSG Build} — program summary graph nodes and labelled edges;}
        {- {b Phase 1} — call-used / call-defined / call-killed;}
        {- {b Phase 2} — live-at-entry / live-at-exit.}}

    Stage elapsed times accumulate in the result's {!Spike_support.Timer.t}
    under the stage-name constants below.  When {!Spike_obs.Trace} (resp.
    {!Spike_obs.Metrics}) collection is enabled, each stage is also
    recorded as a span — with per-routine sub-spans on the lane of the
    pool domain that ran them — and the registry accumulates mark, sweep,
    edge-labelling-dataflow, PSG-composition and heap-gauge metrics; the
    [phase1.iterations] / [phase2.iterations] counters match the
    [phase1_iterations] / [phase2_iterations] fields exactly.  Disabled
    collection costs one branch per probe. *)

open Spike_support
open Spike_ir
open Spike_cfg

type t = {
  program : Program.t;
  cfgs : Cfg.t array;
  defuses : Defuse.t array;
  psg : Psg.t;
  call_classes : Summary.call_class array;  (** indexed by routine *)
  summaries : Summary.t array;  (** indexed by routine *)
  timer : Timer.t;
  phase1_iterations : int;
  phase2_iterations : int;
  branch_nodes : bool;  (** configuration, for {!rerun} *)
  externals : string -> Psg.external_class option;
  callee_saved_filter : bool;
  jobs : int;
      (** parallelism degree the front-end stages and the phase fixpoints
          ran with *)
  phase_sched : [ `Scc ];
      (** always [`Scc]; kept only so that record literals built outside
          this library (the benchmark's layered pipeline) keep compiling,
          and to be removed with them *)
  reused_routines : int;
      (** routines whose front-end artifacts came from the warm plan *)
  warm_capture : Warm.routine_art array option;
      (** per-routine artifacts of this run, when [capture] was requested *)
}

val stage_cfg_build : string
val stage_init : string
val stage_psg_build : string

val stage_sched : string
(** Building the {!Sched} condensation schedule. *)

val stage_phase1 : string
val stage_phase2 : string

val run :
  ?branch_nodes:bool ->
  ?externals:(string -> Psg.external_class option) ->
  ?callee_saved_filter:bool ->
  ?jobs:int ->
  ?warm:Warm.plan ->
  ?capture:bool ->
  Program.t ->
  t
(** Analyse a whole program.  [branch_nodes] (default [true]) controls
    §3.6 branch-node insertion.  [externals] supplies §3.5 summaries for
    call targets outside the image (shared libraries); uncovered names get
    the calling-standard assumption.  The program must validate
    ({!Spike_ir.Validate.check}); behaviour on ill-formed programs is
    unspecified.  [callee_saved_filter] (default [true]) controls the §3.4
    filter — disabling it is an ablation that shows how much precision the
    save/restore transparency buys.

    [jobs] (default {!Spike_support.Pool.default_jobs}, i.e.
    [Domain.recommended_domain_count] clamped; explicit values are clamped
    to [[1, 64]]) is the number of domains the per-routine front-end
    stages — CFG build, initialization and the PSG local pass — run on,
    and the number of domains independent call-graph components of the
    phase 1 / phase 2 fixpoints are dispatched to ({!Sched}).  Results are bit-identical for every [jobs] value.
    With [jobs > 1], [externals] is called concurrently and must be
    thread-safe.  Stage times recorded in [timer] are wall-clock, so a
    parallel stage reports its elapsed time, not the sum over domains.

    [warm] supplies a {!Warm.plan} of per-routine artifacts from an
    earlier run of the {e same} program configuration (modulo the edits
    that dirtied some routines): clean routines skip CFG build,
    initialization and the PSG local pass, and both phases re-converge
    only their invalidation cones.  Results are guaranteed bit-identical
    to a cold run; an all-cold plan {!Warm.cold} {e is} a cold run.  The
    caller is responsible for only reusing artifacts whose inputs are
    unchanged — that is what {!Spike_store} fingerprints enforce.

    [capture] (default [false]) additionally snapshots this run's
    per-routine artifacts into [warm_capture], ready to persist. *)

val rerun : t -> Program.t -> t
(** Re-analyse a transformed program under the same configuration
    (branch nodes, external summaries) — what the optimizer uses between
    passes. *)

val summary_of : t -> string -> Summary.t option
(** Summary of a routine by name. *)

val site_class : t -> Psg.call_info -> Summary.call_class

val total_seconds : t -> float
val pp_times : Format.formatter -> t -> unit
