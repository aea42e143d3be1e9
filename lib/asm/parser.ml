open Spike_isa
open Spike_ir

exception Error of { line : int; message : string }

type kind =
  | Unknown
  | Li
  | Lda
  | Mov
  | Ldq
  | Stq
  | Br
  | Jmp
  | Bsr
  | Jsr
  | Ret
  | Nop
  | Switch
  | Binop of Insn.binop
  | Bcond of Insn.cond

(* Mnemonic -> (kind, spelling); the spelling names the mnemonic in
   messages once its span has been overwritten by the operands. *)
let mnemonics =
  let fixed =
    [ ("li", Li); ("lda", Lda); ("mov", Mov); ("ldq", Ldq); ("stq", Stq); ("br", Br);
      ("jmp", Jmp); ("bsr", Bsr); ("jsr", Jsr); ("ret", Ret); ("nop", Nop);
      ("switch", Switch) ]
    @ List.map (fun op -> (Insn.binop_name op, Binop op)) Insn.binops
    @ List.map (fun c -> (Insn.cond_name c, Bcond c)) Insn.conds
  in
  Scan.Keytab.of_list ~absent:(Unknown, "")
    (List.map (fun (spelling, kind) -> (spelling, (kind, spelling))) fixed)

type state = {
  s : Scan.t;
  names : Scan.Names.table;
  mutable marks : int array;
      (* name id -> serial of the routine that defined it as a label *)
  mutable bad_reg : string option;  (* first unknown register of the line *)
  (* The open routine. *)
  mutable open_routine : bool;
  mutable routine : string;
  mutable exported : bool;
  mutable serial : int;
  mutable entries : string list;  (* reversed *)
  mutable labels : (string * int) list;  (* reversed *)
  mutable insns : Insn.t array;  (* [0 .. count - 1] are the routine's *)
  mutable count : int;
}

(* The line does not have the shape its first token announced. *)
exception Mismatch

let expect_ident st = if not (Scan.ident st.s) then raise_notrace Mismatch
let expect st c = if not (Scan.punct st.s c) then raise_notrace Mismatch
let expect_eol st = if not (Scan.at_eol st.s) then raise_notrace Mismatch

let expect_int st =
  if Scan.int_next st.s then Scan.int st.s else raise_notrace Mismatch

let interned st = Scan.Names.get st.names (Scan.Names.intern st.names st.s)

let name st =
  expect_ident st;
  interned st

(* An unknown register is reported only once the whole line has the
   expected shape; a malformed line reads as malformed. *)
let reg st =
  expect_ident st;
  let r = Scan.register st.s in
  if r < 0 && st.bad_reg = None then st.bad_reg <- Some (Scan.tok_string st.s);
  r

let end_insn st =
  expect_eol st;
  match st.bad_reg with
  | Some r -> Scan.fail st.s "unknown register %s" r
  | None -> ()

(* [NAME ("," NAME)* "]"] ending the line, after the "[". *)
let name_list st what =
  let rec more acc =
    let n = name st in
    if Scan.punct st.s ',' then more (n :: acc)
    else begin
      expect st ']';
      expect_eol st;
      List.rev (n :: acc)
    end
  in
  match more [] with names -> names | exception Mismatch -> Scan.fail st.s "%s" what

let expect_ra st =
  expect_ident st;
  if not (Scan.tok_is st.s "ra") then raise_notrace Mismatch

(* The operands of a known mnemonic, through the end of the line. *)
let operands st kind =
  match kind with
  | Li ->
      let dst = reg st in
      expect st ',';
      let imm = expect_int st in
      end_insn st;
      Insn.Li { dst; imm }
  | Lda | Ldq | Stq ->
      let r = reg st in
      expect st ',';
      let offset = expect_int st in
      expect st '(';
      let base = reg st in
      expect st ')';
      end_insn st;
      (match kind with
      | Lda -> Insn.Lda { dst = r; base; offset }
      | Ldq -> Insn.Load { dst = r; base; offset }
      | _ -> Insn.Store { src = r; base; offset })
  | Mov ->
      let src = reg st in
      expect st ',';
      let dst = reg st in
      end_insn st;
      Insn.Mov { dst; src }
  | Br ->
      let target = name st in
      end_insn st;
      Insn.Br { target }
  | Jmp ->
      expect st '(';
      let target = reg st in
      expect st ')';
      end_insn st;
      Insn.Jump_unknown { target }
  | Bsr ->
      expect_ra st;
      expect st ',';
      let callee = name st in
      end_insn st;
      Insn.Call { callee = Insn.Direct callee }
  | Jsr ->
      expect_ra st;
      expect st ',';
      expect st '(';
      let r = reg st in
      expect st ')';
      let targets =
        if Scan.at_eol st.s then None
        else begin
          expect st ',';
          expect st '[';
          Some (name_list st "malformed jsr target list")
        end
      in
      end_insn st;
      Insn.Call { callee = Insn.Indirect (r, targets) }
  | Ret ->
      end_insn st;
      Insn.Ret
  | Nop ->
      end_insn st;
      Insn.Nop
  | Switch ->
      let index = reg st in
      expect st ',';
      expect st '[';
      let table = name_list st "malformed switch table" in
      end_insn st;
      Insn.Switch { index; table = Array.of_list table }
  | Binop op ->
      let src1 = reg st in
      expect st ',';
      let src2 =
        if Scan.int_next st.s then Insn.Imm (Scan.int st.s) else Insn.Reg (reg st)
      in
      expect st ',';
      let dst = reg st in
      end_insn st;
      Insn.Binop { op; dst; src1; src2 }
  | Bcond cond ->
      let src = reg st in
      expect st ',';
      let target = name st in
      end_insn st;
      Insn.Bcond { cond; src; target }
  | Unknown -> raise_notrace Mismatch

(* A mnemonic whose operands do not fit it, but have the shape of a binary
   operation or a conditional branch, is reported as unknown: no binary
   operation or branch has that name.  Any other misfit cannot be parsed
   at all. *)
let binop_or_bcond_shape st =
  match
    expect_ident st;
    expect st ',';
    if Scan.int_next st.s then begin
      ignore (Scan.int st.s);
      expect st ',';
      expect_ident st;
      expect_eol st
    end
    else begin
      expect_ident st;
      if not (Scan.at_eol st.s) then begin
        expect st ',';
        expect_ident st;
        expect_eol st
      end
    end
  with
  | () -> true
  | exception Mismatch -> false

let push st insn =
  if st.count = Array.length st.insns then begin
    let bigger = Array.make (2 * st.count) Insn.Nop in
    Array.blit st.insns 0 bigger 0 st.count;
    st.insns <- bigger
  end;
  st.insns.(st.count) <- insn;
  st.count <- st.count + 1

(* Marks [id] as a label of the open routine; [false] if it already was. *)
let mark st id =
  if id >= Array.length st.marks then begin
    let bigger = Array.make (2 * (id + 1)) 0 in
    Array.blit st.marks 0 bigger 0 (Array.length st.marks);
    st.marks <- bigger
  end;
  st.marks.(id) <> st.serial
  &&
  (st.marks.(id) <- st.serial;
   true)

let close_routine st =
  let entries =
    match List.rev st.entries with
    | [] ->
        let id = Scan.Names.intern_string st.names (st.routine ^ "$entry") in
        let l = Scan.Names.get st.names id in
        if mark st id then st.labels <- (l, 0) :: st.labels;
        [ l ]
    | declared -> declared
  in
  let routine =
    Routine.make ~exported:st.exported ~name:st.routine ~entries
      ~labels:(List.rev st.labels) (Array.sub st.insns 0 st.count)
  in
  st.open_routine <- false;
  routine

(* One line inside a routine; [Some r] when it closes the routine. *)
let routine_line st =
  let s = st.s in
  if Scan.directive s then
    if Scan.tok_is s "end" && Scan.at_eol s then Some (close_routine st)
    else if Scan.tok_is s "entry" && Scan.ident s && Scan.at_eol s then begin
      st.entries <- interned st :: st.entries;
      None
    end
    else Scan.fail s "expected an instruction"
  else if Scan.ident s then begin
    if Scan.punct s ':' then begin
      if not (Scan.at_eol s) then
        Scan.fail s "cannot parse %s instruction" (Scan.tok_string s);
      let id = Scan.Names.intern st.names s in
      if not (mark st id) then Scan.fail s "duplicate label %s" (Scan.tok_string s);
      st.labels <- (Scan.Names.get st.names id, st.count) :: st.labels
    end
    else begin
      let kind, spelling = Scan.Keytab.find mnemonics (Scan.key s) in
      let m = match kind with Unknown -> Scan.tok_string s | _ -> spelling in
      let operands_at = Scan.pos s in
      st.bad_reg <- None;
      match operands st kind with
      | insn -> push st insn
      | exception Mismatch ->
          Scan.rewind s operands_at;
          if binop_or_bcond_shape st then Scan.fail s "unknown mnemonic %s" m
          else Scan.fail s "cannot parse %s instruction" m
    end;
    None
  end
  else Scan.fail s "expected an instruction"

let parse source =
  let s = Scan.create source in
  let st =
    {
      s;
      names = Scan.Names.create ();
      marks = Array.make 1024 0;
      bad_reg = None;
      open_routine = false;
      routine = "";
      exported = false;
      serial = 0;
      entries = [];
      labels = [];
      insns = Array.make 1024 Insn.Nop;
      count = 0;
    }
  in
  let main = ref None in
  let routines = ref [] (* reversed *) in
  let outside () = Scan.fail s "expected .main or .routine" in
  while Scan.next_line s do
    (if st.open_routine then
       match routine_line st with Some r -> routines := r :: !routines | None -> ()
     else if not (Scan.directive s) then outside ()
     else if Scan.tok_is s "main" then begin
       if not (Scan.ident s && Scan.at_eol s) then outside ();
       if !main <> None then Scan.fail s "duplicate .main directive";
       main := Some (Scan.tok_string s)
     end
     else if Scan.tok_is s "routine" then begin
       if not (Scan.ident s) then outside ();
       let name = interned st in
       st.exported <-
         (if Scan.at_eol s then false
          else if Scan.directive s && Scan.tok_is s "exported" && Scan.at_eol s then true
          else Scan.fail s "malformed .routine directive");
       st.open_routine <- true;
       st.routine <- name;
       st.serial <- st.serial + 1;
       st.entries <- [];
       st.labels <- [];
       st.count <- 0
     end
     else outside ());
    Scan.end_line s
  done;
  if st.open_routine then
    Scan.fail_at 0 (Printf.sprintf "routine %s not closed with .end" st.routine);
  match !main with
  | None -> Scan.fail_at 0 "missing .main directive"
  | Some main -> (
      try Program.make ~main (List.rev !routines)
      with Invalid_argument message -> Scan.fail_at 0 message)

let program_of_string source =
  try parse source with Scan.Error { line; message } -> raise (Error { line; message })

let program_of_file path =
  let ic = open_in_bin path in
  let source =
    match really_input_string ic (in_channel_length ic) with
    | s ->
        close_in ic;
        s
    | exception e ->
        close_in_noerr ic;
        raise e
  in
  program_of_string source
