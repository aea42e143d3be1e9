(* The assembly front-end: print/parse round-trips (hand-written and
   generator-produced programs), every instruction form, and error
   reporting with line numbers. *)

open Spike_isa
open Spike_ir

let program_eq a b =
  String.equal (Spike_asm.Printer.to_string a) (Spike_asm.Printer.to_string b)

let roundtrip msg p =
  let text = Spike_asm.Printer.to_string p in
  let p' = Spike_asm.Parser.program_of_string text in
  if not (program_eq p p') then
    Alcotest.failf "%s: roundtrip mismatch@.first print:@.%s@.reparsed print:@.%s" msg
      text
      (Spike_asm.Printer.to_string p')

(* One routine exercising every instruction form the printer can emit. *)
let kitchen_sink =
  let b = Builder.create ~exported:true "sink" in
  Builder.emit b (Insn.Li { dst = Reg.t0; imm = -5 });
  Builder.emit b (Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -32 });
  Builder.emit b (Insn.Mov { dst = Reg.a0; src = Reg.t0 });
  Builder.emit b (Insn.Binop { op = Insn.Add; dst = Reg.v0; src1 = Reg.t0; src2 = Insn.Reg Reg.t1 });
  Builder.emit b (Insn.Binop { op = Insn.Sll; dst = Reg.v0; src1 = Reg.v0; src2 = Insn.Imm 3 });
  Builder.emit b (Insn.Load { dst = Reg.t2; base = Reg.sp; offset = 8 });
  Builder.emit b (Insn.Store { src = Reg.t2; base = Reg.sp; offset = 16 });
  Builder.emit b (Insn.Bcond { cond = Insn.Ge; src = Reg.t2; target = "skip" });
  Builder.emit b (Insn.Switch { index = Reg.t3; table = [| "skip"; "other" |] });
  Builder.label b "other";
  Builder.emit b (Insn.Call { callee = Insn.Direct "ext" });
  Builder.emit b (Insn.Call { callee = Insn.Indirect (Reg.pv, None) });
  Builder.emit b (Insn.Call { callee = Insn.Indirect (Reg.pv, Some [ "a"; "b" ]) });
  Builder.emit b Insn.Nop;
  Builder.label b "skip";
  Builder.emit b (Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 32 });
  Builder.emit b (Insn.Jump_unknown { target = Reg.t4 });
  Builder.label b "tail";
  Builder.finish b

let test_kitchen_sink () =
  let p = Program.make ~main:"sink" [ kitchen_sink ] in
  roundtrip "kitchen sink" p;
  (* The reparsed routine keeps every label, the one at its end included. *)
  let r =
    Program.get (Spike_asm.Parser.program_of_string (Spike_asm.Printer.to_string p)) 0
  in
  Alcotest.(check (list (pair string int)))
    "labels"
    (List.sort compare kitchen_sink.Routine.labels)
    (List.sort compare r.Routine.labels)

let test_multi_entry_and_exports () =
  let b = Builder.create ~exported:true "m" in
  Builder.declare_entry b "m$a";
  Builder.label b "m$a";
  Builder.emit b (Insn.Li { dst = Reg.t0; imm = 1 });
  Builder.declare_entry b "m$b";
  Builder.label b "m$b";
  Builder.emit b Insn.Ret;
  let r = Builder.finish b in
  let p = Program.make ~main:"m" [ r ] in
  roundtrip "multi-entry exported" p;
  let reparsed = Spike_asm.Parser.program_of_string (Spike_asm.Printer.to_string p) in
  match Program.find reparsed "m" with
  | Some m ->
      Alcotest.(check (list string)) "entries survive" [ "m$a"; "m$b" ] m.Routine.entries;
      Alcotest.(check bool) "exported survives" true m.Routine.exported
  | None -> Alcotest.fail "routine lost"

let test_generated_roundtrip () =
  for seed = 0 to 9 do
    let p =
      Spike_synth.Generator.generate { Spike_synth.Params.default with seed }
    in
    roundtrip (Printf.sprintf "generated seed %d" seed) p
  done;
  (* Also the analysis-only shapes with unknown jumps. *)
  let p =
    Spike_synth.Generator.generate
      {
        Spike_synth.Params.default with
        seed = 77;
        unknown_jump_prob = 0.4;
        guard_calls = false;
      }
  in
  roundtrip "unknown-jump workload" p

let expect_error ~line text =
  match Spike_asm.Parser.program_of_string text with
  | _ -> Alcotest.failf "expected a parse error at line %d" line
  | exception Spike_asm.Parser.Error e ->
      Alcotest.(check int) "error line" line e.line

let test_errors () =
  expect_error ~line:1 "bogus";
  expect_error ~line:2 ".main m\n.routine\n";
  expect_error ~line:3 ".main m\n.routine m\n  li xyzzy, 1\n.end\n";
  expect_error ~line:3 ".main m\n.routine m\n  frobnicate t0\n.end\n";
  expect_error ~line:4 ".main m\n.routine m\n  ret\n  jsr ra, (pv), [a,\n.end\n";
  expect_error ~line:3 ".main m\n.routine m\n  li t0, 99999999999999999999999\n.end\n";
  expect_error ~line:0 ".main m\n.routine m\n  ret\n";
  (* unterminated routine *)
  expect_error ~line:0 "";
  (* no .main *)
  expect_error ~line:3 ".main m\n.routine m\n.routine n\n.end\n.end\n"

(* The (line, message) of every failure class, as recorded from the
   token-list parser this one-pass reader replaced; each input has a
   single error. *)
let golden_program_errors =
  [
    (".main m\n.routine m\n  li xyzzy, 1\n.end\n", 3, "unknown register xyzzy");
    (".main m\n.routine m\n  mov t0, bogus\n.end\n", 3, "unknown register bogus");
    (".main m\n.routine m\n  addq t0, r99, v0\n.end\n", 3, "unknown register r99");
    (".main m\n.routine m\n  ldq t0, 8(q7)\n.end\n", 3, "unknown register q7");
    (".main m\n.routine m\n  jsr ra, (q7)\n.end\n", 3, "unknown register q7");
    (".main m\n.routine m\n  switch zz, [a]\n.end\n", 3, "unknown register zz");
    (".main m\n.routine m\n  beq nope, L\n.end\n", 3, "unknown register nope");
    (".main m\n.routine m\n  frob t0, t1, t2\n.end\n", 3, "unknown mnemonic frob");
    (".main m\n.routine m\n  frob t0, 1, t2\n.end\n", 3, "unknown mnemonic frob");
    (".main m\n.routine m\n  frob t0, L\n.end\n", 3, "unknown mnemonic frob");
    (".main m\n.routine m\n  bsr t0, f\n.end\n", 3, "unknown mnemonic bsr");
    (".main m\n.routine m\n  frobnicate t0\n.end\n", 3,
     "cannot parse frobnicate instruction");
    (".main m\n.routine m\n  frobnicate\n.end\n", 3, "cannot parse frobnicate instruction");
    (".main m\n.routine m\n  ret t0\n.end\n", 3, "cannot parse ret instruction");
    (".main m\n.routine m\n  li t0\n.end\n", 3, "cannot parse li instruction");
    (".main m\n.routine m\n  li t0, 99999999999999999999999\n.end\n", 3,
     "integer 99999999999999999999999 out of range");
    (".main m\n.routine m\n  li t0, -99999999999999999999999\n.end\n", 3,
     "integer -99999999999999999999999 out of range");
    (".main m\n.routine m\n  li t0, 4611686018427387904\n.end\n", 3,
     "integer 4611686018427387904 out of range");
    (".main m\n.routine m\n  li t0, -4611686018427387905\n.end\n", 3,
     "integer -4611686018427387905 out of range");
    (".main m\n.routine m\n  li t0, @1\n.end\n", 3, "unexpected character '@'");
    (".main m\n.routine m\n  ret ;\n.end\n", 3, "unexpected character ';'");
    (".main m\n.routine m\n  li t0, -x\n.end\n", 3, "unexpected character '-'");
    (".main m\n.routine m\n  nop \001\n.end\n", 3, "unexpected character '\\001'");
    (".main m\n.routine m\nL:\n  nop\nL:\n  ret\n.end\n", 5, "duplicate label L");
    (".main m\n.routine m\n  jsr ra, (pv), [a,\n.end\n", 3, "malformed jsr target list");
    (".main m\n.routine m\n  jsr ra, (pv), []\n.end\n", 3, "malformed jsr target list");
    (".main m\n.routine m\n  jsr ra, (pv), [a b]\n.end\n", 3, "malformed jsr target list");
    (".main m\n.routine m\n  switch t0, [\n.end\n", 3, "malformed switch table");
    (".main m\n.routine m\n  switch t0, []\n.end\n", 3, "malformed switch table");
    (".main m\n.routine m\n  switch t0, [a,]\n.end\n", 3, "malformed switch table");
    (".main m\n.routine m\n  switch t0, [a] x\n.end\n", 3, "malformed switch table");
    (".main m\n.end\n", 2, "expected .main or .routine");
    (".main m\n.routine m\n  ret\n", 0, "routine m not closed with .end");
    ("", 0, "missing .main directive");
    (".routine m\n  ret\n.end\n", 0, "missing .main directive");
    (".main m\n.main m\n", 2, "duplicate .main directive");
    (".main m\n.routine\n", 2, "expected .main or .routine");
    (".main m\n.routine m extra\n", 2, "malformed .routine directive");
    (".main m\n.routine m .exported x\n", 2, "malformed .routine directive");
    (".main m\n.routine 5\n", 2, "expected .main or .routine");
    (".main m\n. foo\n", 2, "expected directive name after '.'");
    (".main\n", 1, "expected .main or .routine");
    (".main m\n.routine m\n.routine n\n.end\n.end\n", 3, "expected an instruction");
    (".main x\n.routine m\n  ret\n.end\n", 0, "Program.make: main routine x not defined");
    (".main m\n.routine m\n  ret\n.end\n.routine m\n  ret\n.end\n", 0,
     "Program.make: duplicate routine m");
    (".main m\n.routine m\nL: ret\n.end\n", 3, "cannot parse L instruction");
    (".main m\n.routine m\n  .entry 5\n.end\n", 3, "expected an instruction");
    (".main m\n.routine m\n  123\n.end\n", 3, "expected an instruction");
    ("bogus", 1, "expected .main or .routine");
    (".main m\n.routine m\n  li xyzzy, 99999999999999999999999\n.end\n", 3,
     "integer 99999999999999999999999 out of range");
  ]

let golden_summary_errors =
  [
    (".summary f\n  used = {xyzzy}\n  defined = {}\n  killed = {}\n.end\n", 2,
     "unknown register xyzzy");
    (".summary f\n  used = {}\n  bogus = {}\n  killed = {}\n.end\n", 3,
     "unknown field bogus");
    (".summary f\n  used = {a0 a1}\n.end\n", 2, "malformed register set");
    (".summary f\n  used = {a0,\n.end\n", 2, "malformed register set");
    (".summary f\n  used = {,}\n.end\n", 2, "malformed register set");
    (".summary f\n  used {a0}\n.end\n", 2, "expected '<field> = { ... }'");
    (".summary f\n  used = {}\n.end\n", 3, "summary f is missing its killed set");
    (".summary f\n  used = {}\n  killed = {}\n.end\n", 4,
     "summary f is missing its defined set");
    (".summary f\n  used = {}\n  defined = {}\n  killed = {}\n", 0,
     "summary f not closed with .end");
    (".end\n", 1, "expected .summary");
    (".summary f\n  used = {99999999999999999999}\n.end\n", 2,
     "integer 99999999999999999999 out of range");
    (".summary f\n  used = {a0} @\n.end\n", 2, "unexpected character '@'");
    (".summary f\n.summary g\n.end\n", 2, "expected '<field> = { ... }'");
    (".summary\n", 1, "expected .summary");
    (". x\n", 1, "expected directive name after '.'");
    ("garbage\n", 1, "expected .summary");
    (".summary f\n  used = {a0} x\n.end\n", 2, "malformed register set");
    (".summary f\n  bogus = {xyzzy}\n.end\n", 2, "unknown register xyzzy");
  ]

let check_golden name read table =
  List.iter
    (fun (text, line, message) ->
      match read text with
      | None -> Alcotest.failf "%s: %S parsed" name text
      | Some got ->
          Alcotest.(check (pair int string))
            (Printf.sprintf "%s: %S" name text)
            (line, message) got)
    table

let test_golden_program_errors () =
  check_golden "program"
    (fun text ->
      match Spike_asm.Parser.program_of_string text with
      | _ -> None
      | exception Spike_asm.Parser.Error { line; message } -> Some (line, message))
    golden_program_errors

let test_golden_summary_errors () =
  check_golden "summaries"
    (fun text ->
      match Spike_asm.Summaries.of_string text with
      | _ -> None
      | exception Spike_asm.Summaries.Error { line; message } -> Some (line, message))
    golden_summary_errors;
  (* A trailing comma in a register set is accepted. *)
  match
    Spike_asm.Summaries.of_string
      ".summary f\n  used = {a0,}\n  defined = {}\n  killed = {}\n.end\n"
  with
  | [ ("f", _) ] -> ()
  | _ -> Alcotest.fail "trailing comma"

(* The one intended difference from the token-list parser, which lexed the
   whole file before parsing any of it: with several errors, the earliest
   line wins even when a later line has a lexical error. *)
let test_earliest_line_wins () =
  let text =
    ".main m\n.routine m\n  li xyzzy, 1\n  li t0, 99999999999999999999999\n.end\n"
  in
  match Spike_asm.Parser.program_of_string text with
  | _ -> Alcotest.fail "parsed"
  | exception Spike_asm.Parser.Error { line; message } ->
      Alcotest.(check (pair int string))
        "earliest" (3, "unknown register xyzzy") (line, message)

let test_comments_and_blank_lines () =
  let text =
    "# leading comment\n\n.main m   # trailing\n.routine m\n  li t0, 3 # imm\n\n  \
     ret\n.end\n"
  in
  let p = Spike_asm.Parser.program_of_string text in
  Alcotest.(check int) "instructions" 2 (Program.instruction_count p)

let test_file_io () =
  let p = Program.make ~main:"sink" [ kitchen_sink ] in
  let path = Filename.temp_file "spike_asm_test" ".s" in
  Spike_asm.Printer.to_file path p;
  let p' = Spike_asm.Parser.program_of_file path in
  Sys.remove path;
  if not (program_eq p p') then Alcotest.fail "file roundtrip mismatch"

(* The parser must be total: any input either parses or raises its own
   Error — never an unexpected exception. *)
let test_fuzz_totality () =
  let g = Spike_support.Prng.create 1234 in
  let alphabet = "abz09 _$.,:(){}[]=#-\nliret" in
  for i = 1 to 3000 do
    let len = Spike_support.Prng.int g 120 in
    (* Every third input is arbitrary bytes. *)
    let byte () =
      if i mod 3 = 0 then Char.chr (Spike_support.Prng.int g 256)
      else alphabet.[Spike_support.Prng.int g (String.length alphabet)]
    in
    let text = String.init len (fun _ -> byte ()) in
    (match Spike_asm.Parser.program_of_string text with
    | _ -> ()
    | exception Spike_asm.Parser.Error _ -> ());
    match Spike_asm.Summaries.of_string text with
    | _ -> ()
    | exception Spike_asm.Summaries.Error _ -> ()
  done

(* Every byte-prefix of a printed program either parses or raises the
   reader's own error. *)
let test_byte_prefixes () =
  let p =
    Spike_synth.Generator.generate
      {
        Spike_synth.Params.default with
        seed = 5;
        routines = 4;
        target_instructions = 150;
        switches_per_routine = 1.0;
        indirect_known_prob = 0.5;
        extra_entry_prob = 0.3;
        exported_prob = 0.5;
      }
  in
  let text = Spike_asm.Printer.to_string p in
  for n = 0 to String.length text do
    match Spike_asm.Parser.program_of_string (String.sub text 0 n) with
    | _ -> ()
    | exception Spike_asm.Parser.Error _ -> ()
  done;
  let summaries =
    Spike_asm.Summaries.to_string
      [
        ( "memcpy",
          {
            Spike_core.Psg.x_used = Spike_support.Regset.of_list [ Reg.a0; Reg.a1 ];
            x_defined = Spike_support.Regset.singleton Reg.v0;
            x_killed = Spike_support.Regset.of_list [ Reg.v0; Reg.t0; Reg.ra ];
          } );
      ]
  in
  for n = 0 to String.length summaries do
    match Spike_asm.Summaries.of_string (String.sub summaries 0 n) with
    | _ -> ()
    | exception Spike_asm.Summaries.Error _ -> ()
  done

(* Huge inputs: each completes (no stack overflow, no pass quadratic in
   the routine, table or line size) and round-trips through the printer. *)
let test_huge_inputs () =
  let n = 100_000 in
  let b = Buffer.create (16 * n) in
  Buffer.add_string b ".main m\n.routine m\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "L%d:\n  nop\n" i
  done;
  Buffer.add_string b "  ret\n.end\n";
  let p = Spike_asm.Parser.program_of_string (Buffer.contents b) in
  let r = Program.get p 0 in
  Alcotest.(check int) "labels" (n + 1) (List.length r.Routine.labels);
  roundtrip "many labels" p;
  Buffer.clear b;
  Buffer.add_string b ".main m\n.routine m\nL:\n  switch t0, [";
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Buffer.add_string b "L"
  done;
  Buffer.add_string b "]\n.end\n";
  let p = Spike_asm.Parser.program_of_string (Buffer.contents b) in
  (match (Program.get p 0).Routine.insns with
  | [| Insn.Switch { table; _ } |] ->
      Alcotest.(check int) "switch entries" n (Array.length table)
  | _ -> Alcotest.fail "switch lost");
  roundtrip "wide switch" p;
  let comment = "# " ^ String.make 10_000_000 'x' ^ "\n" in
  let p =
    Spike_asm.Parser.program_of_string (comment ^ ".main m\n.routine m\n  ret\n.end\n")
  in
  Alcotest.(check int) "after the long comment" 1 (Program.instruction_count p);
  match Spike_asm.Parser.program_of_string (comment ^ "  ret\n") with
  | _ -> Alcotest.fail "parsed"
  | exception Spike_asm.Parser.Error { line; _ } -> Alcotest.(check int) "line" 2 line

let () =
  Alcotest.run "asm"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "kitchen sink" `Quick test_kitchen_sink;
          Alcotest.test_case "multi-entry + exported" `Quick test_multi_entry_and_exports;
          Alcotest.test_case "generated programs" `Quick test_generated_roundtrip;
          Alcotest.test_case "file io" `Quick test_file_io;
        ] );
      ( "errors",
        [
          Alcotest.test_case "positions" `Quick test_errors;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
          Alcotest.test_case "fuzz totality" `Quick test_fuzz_totality;
          Alcotest.test_case "golden table, assembly" `Quick test_golden_program_errors;
          Alcotest.test_case "golden table, summaries" `Quick test_golden_summary_errors;
          Alcotest.test_case "earliest line wins" `Quick test_earliest_line_wins;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "byte prefixes" `Quick test_byte_prefixes;
          Alcotest.test_case "huge inputs" `Quick test_huge_inputs;
        ] );
    ]
