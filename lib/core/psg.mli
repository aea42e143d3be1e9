(** The Program Summary Graph (paper §3.1).

    The PSG is a compact whole-program representation of control flow.  Its
    nodes are the program locations the interprocedural analysis cares
    about — routine entries and exits, call sites and their return points,
    plus branch nodes at multiway branches (§3.6) and pseudo-exits at
    indirect jumps with unknown targets (§3.5).  Flow-summary edges connect
    two nodes of the same routine when a control-flow path runs between
    their locations without crossing another node's location; each such
    edge is labelled with the MUST-DEF, MAY-DEF and MAY-USE sets of the
    paths it summarizes.  A call-return edge connects each call node to its
    return node; its label starts empty and is filled during phase 1 with
    the callee's summary composed with the call instruction's own register
    effect.

    Node dataflow sets are scratch space for the currently-running phase:
    {!Phase1} leaves call-used / call-defined / call-killed in the entry
    nodes; {!Phase2} then overwrites [may_use] with liveness.  The
    {!Analysis} driver extracts summaries between the phases. *)

open Spike_support
open Spike_isa
open Spike_ir

type node_kind =
  | Entry of { routine : int; label : string }
      (** routine entrance; location = before its first instruction *)
  | Exit of { routine : int; block : int }
      (** [ret]; location = after the return executes *)
  | Call of { routine : int; block : int }
      (** location = immediately before the call instruction *)
  | Return of { routine : int; call_block : int; block : int }
      (** the call's return point; location = start of [block] *)
  | Branch of { routine : int; block : int }
      (** multiway branch; location = after the branch dispatches *)
  | Unknown_exit of { routine : int; block : int }
      (** indirect jump with unknown targets; all registers live here *)

type node = {
  id : int;
  kind : node_kind;
  mutable may_use : Regset.t;
  mutable may_def : Regset.t;
  mutable must_def : Regset.t;
}

type edge_kind = Flow | Call_return

type edge = {
  edge_id : int;
  src : int;
  dst : int;
  ekind : edge_kind;
  mutable e_may_use : Regset.t;
  mutable e_may_def : Regset.t;
  mutable e_must_def : Regset.t;
}

type external_class = {
  x_used : Regset.t;
  x_defined : Regset.t;
  x_killed : Regset.t;
}
(** A summary supplied from outside the analysed image — the paper's §3.5
    suggestion that the compiler or linker hand Spike exact information
    about code it cannot see (shared-library routines). *)

type call_target =
  | Target_routine of int  (** a routine of the program, by index *)
  | Target_external of external_class
      (** code outside the image with a supplied summary *)

type call_info = {
  call_node : int;
  return_node : int;
  cr_edge : int;  (** the call-return edge's id *)
  callee : Insn.callee;
  targets : call_target list option;
      (** what the call may reach; [None] = unknown, analysed under the
          calling-standard assumption *)
  call_def : Regset.t;  (** the call instruction's own definitions *)
  call_use : Regset.t;  (** the call instruction's own uses *)
}

type t = {
  program : Program.t;
  nodes : node array;
  edges : edge array;
  out_edges : int array array;  (** node id [->] edge ids *)
  in_edges : int array array;
  calls : call_info array;
  callers_of : int list array;
      (** routine index [->] indices into [calls] of sites that may target
          it *)
  entry_nodes : int list array;
      (** routine index [->] entry node ids, in declaration order (head =
          primary entry) *)
  exit_nodes : int list array;  (** routine index [->] exit node ids *)
  unknown_exit_nodes : int list array;
  entry_filter : Regset.t array;
      (** routine index [->] callee-saved registers saved and restored by
          the routine, removed from its exported summary (§3.4) *)
}

val node_count : t -> int
val edge_count : t -> int
val flow_edge_count : t -> int

val primary_entry_node : t -> int -> int
(** [primary_entry_node psg r] is the entry node targeted by calls to
    routine [r]. *)

val node_routine : node_kind -> int

val call_graph : t -> int array array
(** The resolved routine call graph: [call_graph psg].(r) lists the
    distinct routines that calls in routine [r] may target (externals and
    unresolved indirect calls excluded), sorted ascending.  Successor
    lists are deduplicated across call sites. *)

val call_scc : t -> Scc.t
(** SCC decomposition of {!call_graph} — the schedule skeleton for both
    interprocedural phases.  Computed iteratively; safe on call chains of
    any depth. *)

val pp_node : t -> Format.formatter -> node -> unit
val pp : Format.formatter -> t -> unit
