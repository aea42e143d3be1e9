(** Instructions of the Alpha-flavoured IR.

    The instruction set is deliberately small but covers every shape the
    analysis cares about: register-to-register arithmetic, loads and stores,
    two-way conditional branches, jump-table multiway branches (§3.5/§3.6),
    indirect jumps with unknown targets, direct and indirect calls, and
    returns.  Register classes are not enforced: floating-point registers
    participate in the same operations, since the analysis only observes
    def/use bit positions. *)

open Spike_support

type label = string
(** Branch targets inside a routine.  Resolved to block ids by
    {!Spike_cfg}. *)

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Sll  (** shift left logical *)
  | Srl  (** shift right logical *)
  | Cmpeq
  | Cmplt
  | Cmple

type cond = Eq | Ne | Lt | Le | Gt | Ge
(** Branch conditions, testing a register against zero (Alpha style). *)

type operand = Reg of Reg.t | Imm of int

type callee =
  | Direct of string
      (** [bsr ra, name]: call a routine known statically. *)
  | Indirect of Reg.t * string list option
      (** [jsr ra, (r)]: call through a register.  [Some names] when the
          possible targets are known (e.g. recovered from relocation or
          provided by the linker, §3.5); [None] for a fully unknown target,
          analysed under the calling-standard assumption. *)

type t =
  | Li of { dst : Reg.t; imm : int }  (** load immediate *)
  | Lda of { dst : Reg.t; base : Reg.t; offset : int }
      (** address arithmetic: [dst <- base + offset] *)
  | Mov of { dst : Reg.t; src : Reg.t }
  | Binop of { op : binop; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Br of { target : label }  (** unconditional branch *)
  | Bcond of { cond : cond; src : Reg.t; target : label }
      (** conditional branch; falls through when the test fails *)
  | Switch of { index : Reg.t; table : label array }
      (** multiway branch through an extracted jump table *)
  | Jump_unknown of { target : Reg.t }
      (** indirect jump whose targets could not be determined *)
  | Call of { callee : callee }
  | Ret
  | Nop

val defs : t -> Regset.t
(** Registers written by the instruction, as seen at the instruction itself
    (a call defines [ra]; the callee's effect is modelled separately by the
    call summary).  Writes to the hardwired zero registers are discarded. *)

val uses : t -> Regset.t
(** Registers read by the instruction.  Reads of the zero registers are not
    uses (they never carry a live value). *)

val is_call : t -> bool

val call_callee : t -> callee option

val ends_block : t -> bool
(** True for every instruction that terminates a basic block: branches,
    switches, unknown jumps, returns — and calls, since the analysis ends
    blocks at call instructions (§4). *)

val branch_targets : t -> label list
(** Intra-routine successor labels named by the instruction (empty for
    calls, returns and unknown jumps). *)

val falls_through : t -> bool
(** True when control may continue to the next instruction: ordinary
    instructions, failed conditional branches, and calls (which return). *)

val binops : binop list
(** Every binary operation, in declaration order. *)

val binop_name : binop -> string
(** The mnemonic; distinct for every operation and condition. *)

val conds : cond list
(** Every branch condition, in declaration order. *)

val cond_name : cond -> string

val pp : Format.formatter -> t -> unit
(** Assembly rendering, e.g. [addq t0, t1, v0] or [bsr ra, fact]. *)

val to_string : t -> string
