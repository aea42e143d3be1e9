(** Byte-level scanning primitives shared by the assembly reader
    ({!Parser}) and the summary-file reader ({!Summaries}).

    A scanner walks one source string with a position and a 1-based line
    number; it never splits the text into lines or tokens.  Both formats
    are line-oriented: every construct occupies one line, [#] starts a
    comment running to the end of the line, and blanks are spaces, tabs
    and carriage returns.  Tokens are read in place:

    - an identifier (a letter, [_] or [$], then letters, digits, [_] and
      [$]) becomes the current span of the source, compared or looked up
      without copying ({!key}, {!tok_is}, {!Names});
    - a directive is ['.'] followed by identifier characters; its name
      becomes the current span;
    - an integer is decimal digits with an optional ['-'] directly before
      them, converted in place.

    {b Errors.}  Lexical errors — an unexpected character, a ['.'] with no
    name, an integer beyond [min_int .. max_int] — are raised as soon as
    the scanner meets them.  A grammar error raised through {!fail} first
    re-checks the current line lexically, so on any one line a lexical
    error is reported ahead of a grammar error.  Across lines the earliest
    line with an error wins. *)

exception Error of { line : int; message : string }

type t

val create : string -> t

val fail : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Grammar error on the current line: raises the line's first lexical
    error if it has one, else [Error] with the formatted message. *)

val fail_at : int -> string -> 'a
(** [Error] at the given line, with no lexical re-check (line 0: the file
    as a whole). *)

(** {2 Lines} *)

val next_line : t -> bool
(** Skips blank and comment-only lines; [true] when the scanner then
    stands before the first token of a line, [false] at the end of the
    source. *)

val at_eol : t -> bool
(** Skips blanks and a comment; [true] at the end of the line. *)

val end_line : t -> unit
(** Consumes the newline ending the current line; call once {!at_eol}
    holds. *)

(** {2 Tokens}

    Each reader skips blanks first and consumes its token only when the
    next token has the expected form. *)

val punct : t -> char -> bool
(** Consumes the punctuation character if it is next. *)

val ident : t -> bool
(** Consumes an identifier, making it the current span. *)

val directive : t -> bool
(** Consumes a directive, making its name (without the dot) the current
    span.  A ['.'] with no name is a lexical error. *)

val int_next : t -> bool
(** An integer is next. *)

val int : t -> int
(** Consumes the integer {!int_next} found. *)

val pos : t -> int

val rewind : t -> int -> unit
(** Back to a {!pos} taken earlier on the same line. *)

(** {2 The current span} *)

val key : t -> int
(** The span's bytes packed into an int (byte [i] at bits [8i ..]); [-1]
    when it is longer than 7 bytes.  Distinct spans of up to 7 identifier
    bytes have distinct keys. *)

val register : t -> int
(** The register the span spells (any {!Spike_isa.Reg.spellings} entry),
    or [-1]. *)

val tok_is : t -> string -> bool
val tok_string : t -> string
(** A fresh copy of the span (for messages and rare names). *)

(** {2 Int-keyed tables}

    Fixed tables from spellings of at most 7 bytes (mnemonics, register
    spellings) to values, probed with {!key}. *)

module Keytab : sig
  type 'a t

  val of_list : absent:'a -> (string * 'a) list -> 'a t
  val find : 'a t -> int -> 'a
  (** The value for a key, or [absent]. *)
end

(** {2 Interned names}

    One string per distinct identifier: the first occurrence is copied
    out of the source, later ones find it by hashing the span in place.
    Each name gets a dense id, stable for the table's lifetime. *)

module Names : sig
  type table

  val create : unit -> table
  val intern : table -> t -> int
  (** Id of the current span's name. *)

  val intern_string : table -> string -> int
  val get : table -> int -> string
end
