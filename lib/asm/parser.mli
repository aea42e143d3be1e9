(** Reader for the textual assembly format: one pass of a scanner
    over the source bytes (the private [Scan] module).

    Grammar (one construct per line):
    {v
    program    ::= ".main" NAME  routine*
    routine    ::= ".routine" NAME [".exported"]  item*  ".end"
    item       ::= ".entry" LABEL | LABEL ":" | instruction
    instruction::= "li" REG "," INT
                 | "lda" REG "," INT "(" REG ")"
                 | "mov" REG "," REG
                 | BINOP REG "," (REG | INT) "," REG
                 | "ldq" REG "," INT "(" REG ")"
                 | "stq" REG "," INT "(" REG ")"
                 | "br" LABEL
                 | BCOND REG "," LABEL
                 | "switch" REG "," "[" LABEL ("," LABEL)* "]"
                 | "jmp" "(" REG ")"
                 | "bsr" "ra" "," NAME
                 | "jsr" "ra" "," "(" REG ")" ["," "[" NAME ("," NAME)* "]"]
                 | "ret" | "nop"
    v}
    [#] starts a comment.  The parser validates nothing beyond syntax; run
    {!Spike_ir.Validate.check} on the result.

    Mnemonics and registers are looked up by their spelling packed into
    an int, integers are converted in place, and each distinct label or
    routine name is copied out of the source once and shared; the parse
    allocates little beyond the instructions.  Duplicate labels are caught
    by marking each name with the serial number of the routine that
    defines it.

    {b Errors.}  The error names the earliest line that has one.  On that
    line a lexical error (unexpected character, ['.'] without a name,
    integer out of range) comes before a grammar error, and an unknown
    register (the leftmost, if several) is reported only when the rest of
    the line is well formed.  Line 0 stands for the file as a whole: a
    routine not closed with [.end], a missing [.main], or a
    {!Spike_ir.Program.make} failure. *)

open Spike_ir

exception Error of { line : int; message : string }
(** Raised on syntax errors, with the 1-based source line. *)

val program_of_string : string -> Program.t
(** @raise Error on malformed input. *)

val program_of_file : string -> Program.t
(** Reads and parses a file.  @raise Sys_error / Error. *)
