(** Dense bitsets over the 64 machine registers.

    A value of type {!t} represents a set of register numbers in the range
    [0 .. 63].  The representation is two immediate 32-bit halves, so every
    set operation is a handful of machine instructions and no allocation
    beyond the result record.  These sets are the currency of the whole
    analysis: DEF/UBD per basic block, the MUST-DEF / MAY-DEF / MAY-USE
    labels on PSG edges, and the per-routine summary sets. *)

type t

val bits : int
(** Number of representable registers (64). *)

val empty : t
val full : t

val singleton : int -> t
(** [singleton r] is the set containing only register [r].
    @raise Invalid_argument if [r] is outside [0 .. bits - 1]. *)

val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val subset : t -> t -> bool
(** [subset a b] is [true] iff every member of [a] is a member of [b]. *)

val disjoint : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** [iter f s] applies [f] to each member of [s] in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s init] folds [f] over the members of [s] in increasing order. *)

val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val choose : t -> int option
(** [choose s] is the smallest member of [s], if any. *)

val of_list : int list -> t
val to_list : t -> int list

val hash : t -> int

(** {2 Unboxed access}

    The interprocedural phases recompute millions of node sets; going
    through allocated set values there costs more than the bit arithmetic
    itself.  These accessors expose the two 32-bit halves so hot loops can
    work on plain ints and re-box once per node. *)

val lo_bits : t -> int
(** Bits of registers [0 .. 31]. *)

val hi_bits : t -> int
(** Bits of registers [32 .. 63]. *)

val of_bits : lo:int -> hi:int -> t
(** Inverse of [lo_bits]/[hi_bits]; masks each half to 32 bits. *)

val pp : ?name:(int -> string) -> Format.formatter -> t -> unit
(** Prints as [{r1, r5}]; [name] overrides the default ["r<n>"] rendering. *)

val to_string : ?name:(int -> string) -> t -> string

val add_to_buffer : ?name:(int -> string) -> Buffer.t -> t -> unit
(** Appends the {!pp} rendering. *)
