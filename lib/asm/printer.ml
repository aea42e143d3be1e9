open Spike_ir

(* Routine.pp already prints the exact concrete syntax; the program printer
   adds the .main header.  Keeping the syntax in one place (Routine.pp /
   Insn.pp) is what makes the round-trip guarantee cheap to maintain. *)

let pp_program = Program.pp
let to_string p = Format.asprintf "%a" pp_program p

let to_file path p =
  let oc = open_out path in
  (* [Routine.pp] ends each line with a flush; here only the channel's own
     buffer decides when to write, not one system call per line. *)
  let ppf = Format.make_formatter (output_substring oc) ignore in
  pp_program ppf p;
  Format.pp_print_flush ppf ();
  close_out oc
