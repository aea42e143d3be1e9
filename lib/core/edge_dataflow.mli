(** The Figure-6 dataflow that labels flow-summary edges.

    For a flow-summary edge [E = (N_X, N_Y)] the paper solves, over the CFG
    subgraph of the blocks on X-to-Y paths, for every block [B]

    - [MAY-USE_IN[B]]: registers used before defined on some path from the
      start of [B] to the location of [N_Y];
    - [MAY-DEF_IN[B]]: registers defined on some such path;
    - [MUST-DEF_IN[B]]: registers defined on all such paths,

    and reads the label off at the source's location.  The sink block's
    OUT sets are the boundary (all empty); meets are taken over successors
    inside the solved graph only.

    This module solves once per {e sink} instead of once per edge.  The
    {e region} of a sink block is every block that reaches it without
    crossing another cut.  The transfer functions are distributive gen/kill
    functions, so the fixpoint at a block equals the meet over its paths to
    the sink; and a source's paths to the sink all lie inside the region,
    through exactly the blocks of that edge's subgraph.  So one solve over
    the region gives, at every source location, the label the per-edge
    subgraph solve would give, bit for bit.

    The solver keeps its sets as unboxed [int] halves in routine-sized
    scratch arrays; the sweep allocates nothing and a {!sets} record is
    built only when a label is read out. *)

open Spike_support
open Spike_cfg

type sets = { may_use : Regset.t; may_def : Regset.t; must_def : Regset.t }

val empty : sets
(** [{may_use = ∅; may_def = ∅; must_def = ∅}] — the boundary at the sink. *)

val top_must : sets
(** [{may_use = ∅; may_def = ∅; must_def = full}] — identity of the meet. *)

val join : sets -> sets -> sets
(** Pointwise path-merge: union for the MAY sets, intersection for
    MUST-DEF. *)

val apply_block : def:Regset.t -> ubd:Regset.t -> sets -> sets
(** Transfer function of a block: [IN] from [OUT]
    (Figure 6's first three equations). *)

type scratch
(** One routine's solver state: unboxed copies of its DEF/UBD sets, its
    cut blocks, and generation-stamped region and IN tables, reused by
    every {!solve} on that routine without a per-solve reset.  A scratch
    holds one solution at a time; give each domain of a parallel build its
    own. *)

val create_scratch : cfg:Cfg.t -> defuse:Defuse.t -> cut:bool array -> scratch
(** [create_scratch ~cfg ~defuse ~cut] prepares to solve [cfg]'s sinks.
    [cut.(b)] marks the blocks no region crosses (call, exit,
    unknown-exit and branch-node blocks); it is not copied.
    @raise Invalid_argument if [cut] is not one entry per block. *)

val solve : scratch -> sink:int -> unit
(** [solve s ~sink] collects the region of block [sink] and runs the
    dataflow over it to fixpoint, replacing the previous solution. *)

val in_of : scratch -> int -> sets
(** IN sets of a region block.
    @raise Invalid_argument if the block is not in the region. *)

val join_succs : scratch -> int -> sets
(** [join_succs s b] joins the IN sets of [b]'s successors that lie in the
    region ({!top_must} if none does): the label of a branch node, whose
    paths start after its block's instructions. *)
