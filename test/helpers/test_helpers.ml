(* Shared helpers for the test suites. *)

open Spike_support
open Spike_isa
open Spike_ir

let regset_testable =
  Alcotest.testable (Regset.pp ~name:Reg.name) Regset.equal

let check_regset = Alcotest.check regset_testable

(* Check equality of a set restricted to the registers of interest — the
   paper's examples speak only about abstract registers R0..R3, while our
   IR adds real [ra]/[sp] traffic around calls and returns. *)
let check_restricted msg ~over expected actual =
  check_regset msg expected (Regset.inter actual over)

let rs = Regset.of_list

(* Instruction shorthands used throughout the tests.  Registers R0..R3 of
   the paper's examples map to v0, t0, t1, t2. *)
let r0 = Reg.v0
let r1 = Reg.t0
let r2 = Reg.t1
let r3 = Reg.t2

let li dst imm = Insn.Li { dst; imm }
let mov ~src ~dst = Insn.Mov { dst; src }
let add dst src1 src2 = Insn.Binop { op = Insn.Add; dst; src1; src2 = Insn.Reg src2 }
let load dst ~base ~offset = Insn.Load { dst; base; offset }
let store src ~base ~offset = Insn.Store { src; base; offset }
let use r = store r ~base:Reg.sp ~offset:0 (* an instruction that only reads [r] *)
let br target = Insn.Br { target }
let beq src target = Insn.Bcond { cond = Insn.Eq; src; target }
let bne src target = Insn.Bcond { cond = Insn.Ne; src; target }
let switch index table = Insn.Switch { index; table = Array.of_list table }
let call name = Insn.Call { callee = Insn.Direct name }
let call_indirect ?targets reg = Insn.Call { callee = Insn.Indirect (reg, targets) }
let ret = Insn.Ret

(* Assemble a routine from (label option, insn) rows. *)
let routine ?exported ?entries name rows =
  let labels = ref [] and insns = ref [] in
  List.iteri
    (fun i (label, insn) ->
      (match label with Some l -> labels := (l, i) :: !labels | None -> ());
      insns := insn :: !insns)
    rows;
  let entries =
    match entries with
    | Some e -> e
    | None ->
        let l = name ^ "$entry" in
        labels := (l, 0) :: !labels;
        [ l ]
  in
  Routine.make ?exported ~name ~entries ~labels:(List.rev !labels)
    (Array.of_list (List.rev !insns))

let program ~main routines =
  let p = Program.make ~main routines in
  (match Validate.check p with
  | Ok () -> ()
  | Error problems ->
      Alcotest.failf "test program ill-formed:@ %s" (String.concat "; " problems));
  p

(* The paper's Figure 2 example: P1 and P3 both call P2.
   P1: defines R0 and R1, calls P2, uses R0 afterwards.
   P2: uses R1, defines R2 on both arms of a diamond, R3 on one arm.
   P3: defines R1, calls P2.
   main calls P1 and P3. *)
let figure2_program () =
  let p1 =
    routine "P1"
      [ (None, li r0 1); (None, li r1 2); (None, call "P2"); (None, use r0); (None, ret) ]
  in
  let p2 =
    routine "P2"
      [
        (None, bne r1 "P2_right");
        (None, li r2 5);
        (None, li r3 7);
        (None, br "P2_join");
        (Some "P2_right", li r2 9);
        (Some "P2_join", ret);
      ]
  in
  let p3 = routine "P3" [ (None, li r1 3); (None, call "P2"); (None, ret) ] in
  let main = routine "main" [ (None, call "P1"); (None, call "P3"); (None, ret) ] in
  program ~main:"main" [ main; p1; p2; p3 ]

(* --- Figure-6 oracle for flow-summary edge labels ------------------------- *)

(* The paper's own construction of one flow-summary edge's label (§3.1,
   Figure 6), written for clarity rather than speed: the edge's subgraph
   is the blocks forward-reachable from the source without passing a cut,
   intersected with the blocks that reach the sink block without passing
   another cut, and the dataflow is solved over that subgraph alone.  A
   source [~after:true] (a branch node) starts after its block's own
   instructions, at the block's successors. *)
let figure6_label ~branch_nodes (cfg : Spike_cfg.Cfg.t) defuse ~src_block ~after
    ~sink_block =
  let open Spike_cfg in
  let open Spike_core in
  let n = Cfg.block_count cfg in
  let cut b =
    match cfg.blocks.(b).ending with
    | Ends_ret | Ends_jump_unknown | Ends_call _ -> true
    | Ends_switch -> branch_nodes
    | Ends_plain -> false
  in
  let reach starts next =
    let seen = Array.make n false in
    let rec go = function
      | [] -> ()
      | b :: rest when seen.(b) -> go rest
      | b :: rest ->
          seen.(b) <- true;
          go (next b @ rest)
    in
    go starts;
    seen
  in
  let starts = if after then Array.to_list cfg.blocks.(src_block).succs else [ src_block ] in
  let fwd =
    reach starts (fun b -> if cut b then [] else Array.to_list cfg.blocks.(b).succs)
  in
  let bwd =
    reach [ sink_block ] (fun b ->
        List.filter (fun p -> not (cut p)) (Array.to_list cfg.blocks.(b).preds))
  in
  let sub b = fwd.(b) && bwd.(b) in
  let ins = Array.make n Edge_dataflow.top_must in
  let join_succs b =
    Array.fold_left
      (fun acc s -> if sub s then Edge_dataflow.join acc ins.(s) else acc)
      Edge_dataflow.top_must cfg.blocks.(b).succs
  in
  let equal (a : Edge_dataflow.sets) (b : Edge_dataflow.sets) =
    Regset.equal a.may_use b.may_use
    && Regset.equal a.may_def b.may_def
    && Regset.equal a.must_def b.must_def
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      if sub b then begin
        let out = if b = sink_block then Edge_dataflow.empty else join_succs b in
        let next =
          Edge_dataflow.apply_block ~def:(Spike_cfg.Defuse.def defuse b)
            ~ubd:(Spike_cfg.Defuse.ubd defuse b) out
        in
        if not (equal next ins.(b)) then begin
          ins.(b) <- next;
          changed := true
        end
      end
    done
  done;
  if after then join_succs src_block else ins.(src_block)

(* Which of the oracle's interesting cases a program's flow edges hit. *)
type figure6_coverage = {
  mutable edges : int;
  mutable branch_sources : int;  (** edges leaving a branch node *)
  mutable same_block : int;  (** sink block = source block *)
  mutable multi_entry : int;  (** edges leaving an entry of a multi-entry routine *)
  mutable looping : int;  (** edges whose source block can reach itself *)
}

(* Check every flow edge label of [program]'s PSG against {!figure6_label};
   the first mismatch fails the test.  Returns the cases covered. *)
let check_figure6_labels ~branch_nodes program =
  let open Spike_cfg in
  let open Spike_core in
  let cfgs = Array.map Cfg.build (Program.routines program) in
  let defuses = Array.map Defuse.compute cfgs in
  let psg = Psg_build.build ~branch_nodes program cfgs defuses in
  let cov = { edges = 0; branch_sources = 0; same_block = 0; multi_entry = 0; looping = 0 } in
  let self_reaching (cfg : Cfg.t) b =
    let seen = Array.make (Cfg.block_count cfg) false in
    let rec go x =
      Array.exists
        (fun s -> s = b || ((not seen.(s)) && (seen.(s) <- true; go s)))
        cfg.blocks.(x).succs
    in
    go b
  in
  Array.iter
    (fun (e : Psg.edge) ->
      if e.ekind = Psg.Flow then begin
        let routine, src_block, after =
          match psg.nodes.(e.src).kind with
          | Psg.Entry { routine; label } ->
              (routine, List.assoc label cfgs.(routine).entry_blocks, false)
          | Psg.Return { routine; block; _ } -> (routine, block, false)
          | Psg.Branch { routine; block } -> (routine, block, true)
          | _ -> Alcotest.failf "flow edge %d leaves a non-source node" e.edge_id
        in
        let sink_block =
          match psg.nodes.(e.dst).kind with
          | Psg.Call { block; _ } | Psg.Exit { block; _ } | Psg.Unknown_exit { block; _ }
          | Psg.Branch { block; _ } ->
              block
          | _ -> Alcotest.failf "flow edge %d enters a non-sink node" e.edge_id
        in
        let cfg = cfgs.(routine) in
        let expected =
          figure6_label ~branch_nodes cfg defuses.(routine) ~src_block ~after ~sink_block
        in
        let what =
          Printf.sprintf "edge %d (routine %d, block %d -> %d)" e.edge_id routine src_block
            sink_block
        in
        check_regset (what ^ " may-use") expected.may_use e.e_may_use;
        check_regset (what ^ " may-def") expected.may_def e.e_may_def;
        check_regset (what ^ " must-def") expected.must_def e.e_must_def;
        cov.edges <- cov.edges + 1;
        if after then cov.branch_sources <- cov.branch_sources + 1;
        if src_block = sink_block then cov.same_block <- cov.same_block + 1;
        (match psg.nodes.(e.src).kind with
        | Psg.Entry _ when List.length cfg.entry_blocks > 1 ->
            cov.multi_entry <- cov.multi_entry + 1
        | _ -> ());
        if self_reaching cfg src_block then cov.looping <- cov.looping + 1
      end)
    psg.edges;
  cov

(* Exact agreement of an analysis with the PSG-free reference fixpoint
   (spike_reference): call classes, live-at-entry of the primary entry
   and live-at-exit of every exit block. *)
let check_reference ?(label = "") (analysis : Spike_core.Analysis.t) =
  let open Spike_core in
  let reference = Spike_reference.Reference.run analysis.Analysis.program in
  Program.iter
    (fun r (routine : Routine.t) ->
      let name = label ^ routine.Routine.name in
      let a = analysis.Analysis.call_classes.(r)
      and b = reference.Spike_reference.Reference.call_classes.(r) in
      check_regset (name ^ " call-used") b.Summary.used a.Summary.used;
      check_regset (name ^ " call-defined") b.Summary.defined a.Summary.defined;
      check_regset (name ^ " call-killed") b.Summary.killed a.Summary.killed;
      let s = analysis.Analysis.summaries.(r) in
      (match s.Summary.live_at_entry with
      | (_, live) :: _ ->
          check_regset (name ^ " live-at-entry")
            reference.Spike_reference.Reference.live_at_entry.(r)
            live
      | [] -> ());
      List.iter
        (fun (block, live) ->
          match
            List.assoc_opt block reference.Spike_reference.Reference.live_at_exit.(r)
          with
          | Some expected ->
              check_regset
                (Printf.sprintf "%s live-at-exit B%d" name block)
                expected live
          | None -> Alcotest.failf "%s: exit block B%d missing in reference" name block)
        s.Summary.live_at_exit)
    analysis.Analysis.program

(* One call-graph SCC of [n] routines: [f i] calls [f (i + 1)] (the
   ring), every [chord]-th routine (none when omitted) also calls a
   routine about a third of the ring further on, and each routine's body
   sits in a CFG loop.  Each routine defines and reads registers picked
   by its index, so the summaries vary around the ring. *)
let recursion_ring ?chord n =
  let name i = Printf.sprintf "f%d" (i mod n) in
  let regs = [| r0; r1; r2; r3; Reg.t3; Reg.t4; Reg.s0; Reg.s1 |] in
  let reg i = regs.(i mod Array.length regs) in
  let routines =
    List.init n (fun i ->
        let chords =
          match chord with
          | Some k when i mod k = 0 -> [ (None, call (name (i + (n / 3) + 1))) ]
          | Some _ | None -> []
        in
        routine (name i)
          ([
             (Some "loop", li (reg i) i);
             (None, beq (reg (i + 3)) "done");
             (None, call (name (i + 1)));
           ]
          @ chords
          @ [
              (None, use (reg (i + 5)));
              (None, bne (reg (i + 1)) "loop");
              (Some "done", ret);
            ]))
  in
  program ~main:(name 0) routines
