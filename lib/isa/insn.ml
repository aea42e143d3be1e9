open Spike_support

type label = string

type binop = Add | Sub | Mul | And | Or | Xor | Sll | Srl | Cmpeq | Cmplt | Cmple
type cond = Eq | Ne | Lt | Le | Gt | Ge
type operand = Reg of Reg.t | Imm of int
type callee = Direct of string | Indirect of Reg.t * string list option

type t =
  | Li of { dst : Reg.t; imm : int }
  | Lda of { dst : Reg.t; base : Reg.t; offset : int }
  | Mov of { dst : Reg.t; src : Reg.t }
  | Binop of { op : binop; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Br of { target : label }
  | Bcond of { cond : cond; src : Reg.t; target : label }
  | Switch of { index : Reg.t; table : label array }
  | Jump_unknown of { target : Reg.t }
  | Call of { callee : callee }
  | Ret
  | Nop

(* Writes to the zero registers are architectural no-ops and reads of them
   never carry dataflow, so both are filtered here once and for all. *)
let def_of r = if Reg.is_zero r then Regset.empty else Regset.singleton r
let use_of r = if Reg.is_zero r then Regset.empty else Regset.singleton r
let use2 a b = Regset.union (use_of a) (use_of b)

let defs = function
  | Li { dst; _ } | Lda { dst; _ } | Mov { dst; _ } | Binop { dst; _ } | Load { dst; _ } ->
      def_of dst
  | Store _ | Br _ | Bcond _ | Switch _ | Jump_unknown _ | Ret | Nop -> Regset.empty
  | Call _ -> def_of Reg.ra

let uses = function
  | Li _ | Br _ | Nop -> Regset.empty
  | Lda { base; _ } | Load { base; _ } -> use_of base
  | Mov { src; _ } -> use_of src
  | Binop { src1; src2; _ } -> (
      match src2 with Reg r -> use2 src1 r | Imm _ -> use_of src1)
  | Store { src; base; _ } -> use2 src base
  | Bcond { src; _ } -> use_of src
  | Switch { index; _ } -> use_of index
  | Jump_unknown { target } -> use_of target
  | Call { callee } -> (
      match callee with Direct _ -> Regset.empty | Indirect (r, _) -> use_of r)
  | Ret -> use_of Reg.ra

let is_call = function
  | Call _ -> true
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Br _ | Bcond _ | Switch _
  | Jump_unknown _ | Ret | Nop ->
      false

let call_callee = function
  | Call { callee } -> Some callee
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Br _ | Bcond _ | Switch _
  | Jump_unknown _ | Ret | Nop ->
      None

let ends_block = function
  | Br _ | Bcond _ | Switch _ | Jump_unknown _ | Call _ | Ret -> true
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Nop -> false

let branch_targets = function
  | Br { target } -> [ target ]
  | Bcond { target; _ } -> [ target ]
  | Switch { table; _ } -> Array.to_list table
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Jump_unknown _ | Call _ | Ret
  | Nop ->
      []

let falls_through = function
  | Br _ | Switch _ | Jump_unknown _ | Ret -> false
  | Bcond _ | Call _ | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Nop -> true

let binop_table =
  [ (Add, "addq"); (Sub, "subq"); (Mul, "mulq"); (And, "and"); (Or, "or");
    (Xor, "xor"); (Sll, "sll"); (Srl, "srl"); (Cmpeq, "cmpeq"); (Cmplt, "cmplt");
    (Cmple, "cmple") ]

let binops = List.map fst binop_table
let binop_name op = List.assoc op binop_table

let cond_table = [ (Eq, "beq"); (Ne, "bne"); (Lt, "blt"); (Le, "ble"); (Gt, "bgt"); (Ge, "bge") ]
let conds = List.map fst cond_table
let cond_name c = List.assoc c cond_table

let pp ppf insn =
  let reg = Reg.name in
  match insn with
  | Li { dst; imm } -> Format.fprintf ppf "li %s, %d" (reg dst) imm
  | Lda { dst; base; offset } ->
      Format.fprintf ppf "lda %s, %d(%s)" (reg dst) offset (reg base)
  | Mov { dst; src } -> Format.fprintf ppf "mov %s, %s" (reg src) (reg dst)
  | Binop { op; dst; src1; src2 } -> (
      match src2 with
      | Reg r -> Format.fprintf ppf "%s %s, %s, %s" (binop_name op) (reg src1) (reg r) (reg dst)
      | Imm i -> Format.fprintf ppf "%s %s, %d, %s" (binop_name op) (reg src1) i (reg dst))
  | Load { dst; base; offset } ->
      Format.fprintf ppf "ldq %s, %d(%s)" (reg dst) offset (reg base)
  | Store { src; base; offset } ->
      Format.fprintf ppf "stq %s, %d(%s)" (reg src) offset (reg base)
  | Br { target } -> Format.fprintf ppf "br %s" target
  | Bcond { cond; src; target } ->
      Format.fprintf ppf "%s %s, %s" (cond_name cond) (reg src) target
  | Switch { index; table } ->
      Format.fprintf ppf "switch %s, [%s]" (reg index)
        (String.concat ", " (Array.to_list table))
  | Jump_unknown { target } -> Format.fprintf ppf "jmp (%s)" (reg target)
  | Call { callee } -> (
      match callee with
      | Direct name -> Format.fprintf ppf "bsr ra, %s" name
      | Indirect (r, None) -> Format.fprintf ppf "jsr ra, (%s)" (reg r)
      | Indirect (r, Some names) ->
          Format.fprintf ppf "jsr ra, (%s), [%s]" (reg r) (String.concat ", " names))
  | Ret -> Format.pp_print_string ppf "ret"
  | Nop -> Format.pp_print_string ppf "nop"

let to_string insn = Format.asprintf "%a" pp insn
