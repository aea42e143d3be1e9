(** The SCC-condensation schedule shared by both interprocedural phases.

    Both phase fixpoints propagate information along the routine call
    graph — callee to caller in phase 1, caller to callee in phase 2 —
    and every PSG edge connects two nodes of the {e same} routine, so the
    cross-routine dependence structure of either phase is exactly the
    call-graph condensation.  Processing components in topological order
    (reversed for phase 2) and iterating only {e inside} each component
    gives one bounded fixpoint per component: cross-component inputs are
    already converged when a component starts, by the schedule.

    Inside a component the fixpoint is a plain sweep ({!drain}) over a
    fixed node order: the component's routines in dependency order, each
    routine's nodes sink-first.

    Because each phase's equation system is monotone over a finite
    lattice, its fixpoint is unique — so the values a component converges
    to do not depend on when or where it ran.  That is what makes the
    parallel mode (independent components dispatched to pool workers as
    their dependencies complete) bit-identical to the serial one. *)

open Spike_support

type t = {
  scc : Scc.t;  (** over routine indices, from {!Psg.call_scc} *)
  comp_of_node : int array;  (** PSG node id [->] component *)
  order_p1 : int array array;
      (** component [->] its node ids for phase 1: the routines in
          [Scc.members] order (callee-first DFS postorder), each
          routine's nodes by descending id (sink-first) *)
  order_p2 : int array array;
      (** the same nodes for phase 2: routines in reverse [Scc.members]
          order (caller-first), nodes again by descending id *)
  comp_calls : int array array;
      (** component [->] indices into [Psg.calls] of the call sites whose
          call node lives in the component, ascending *)
  pool : Pool.t option;  (** execute components on this pool when given *)
}

val make : ?pool:Pool.t -> Psg.t -> t
(** Build the schedule for a PSG.  O(nodes + calls + call-graph SCC).
    [pool] enables the parallel executor; omitted (or a 1-job pool), the
    components run on the calling domain. *)

val jobs : t -> int
(** Parallelism degree the executor will use (1 without a pool). *)

val run : t -> rev:bool -> dirty:(int -> bool) -> (Bytes.t -> int -> int) -> int
(** [run t ~rev ~dirty f] executes [f scratch c] once for every component
    [c] with [dirty c] true — in topological order ([rev:false],
    successors first: phase 1) or reverse ([rev:true]: phase 2) — and
    returns the sum of the results (the phase's iteration total).

    [scratch] is an all-zero mark bitset of [Psg.node_count] bytes for
    the component's {!drain}; [f] must return it all-zero (a drained
    fixpoint does).  With a multi-domain pool, components whose schedule
    predecessors have all finished run concurrently on the pool's
    workers, each with its own scratch bitset; clean components complete
    instantly but still release their dependents.  [f] must then confine
    its writes to the component's own nodes and call-return edges — the
    phase drivers do — and the sum is accumulated atomically.  Each
    component's drain is deterministic, so the sum is identical for every
    [jobs] value. *)

val drain :
  sweeps:Spike_obs.Metrics.counter -> int array -> Bytes.t -> (int -> unit) -> int
(** [drain ~sweeps order marked process] sweeps [order] front to back,
    clearing the mark of each marked node and calling [process] on it,
    and repeats until a sweep pops nothing.  [process] may mark any node
    of [order] (one ahead of the cursor pops in the same sweep, one
    behind it in the next); marks outside [order] are never cleared.
    Returns the number of pops; [sweeps] counts the passes, the final
    empty one included. *)
