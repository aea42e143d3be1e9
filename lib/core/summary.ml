open Spike_support
open Spike_isa
open Spike_ir

type call_class = { used : Regset.t; defined : Regset.t; killed : Regset.t }

type t = {
  routine : int;
  name : string;
  call_class : call_class;
  live_at_entry : (string * Regset.t) list;
  live_at_exit : (int * Regset.t) list;
}

(* MUST-DEF's lattice top is the full bitset; strip the hardwired zero
   registers (and anything else unallocatable) from reported summaries. *)
let mask = Calling_standard.all_allocatable

let class_of_entry_node (psg : Psg.t) node_id =
  let node = psg.nodes.(node_id) in
  {
    used = Regset.inter node.may_use mask;
    defined = Regset.inter node.must_def mask;
    killed = Regset.inter node.may_def mask;
  }

let extract_call_classes (psg : Psg.t) =
  Array.init (Program.routine_count psg.program) (fun r ->
      class_of_entry_node psg (Psg.primary_entry_node psg r))

let extract (psg : Psg.t) call_classes =
  let program = psg.program in
  Array.init (Program.routine_count program) (fun r ->
      let routine = Program.get program r in
      let live_at_entry =
        List.map
          (fun node_id ->
            match psg.nodes.(node_id).kind with
            | Psg.Entry { label; _ } ->
                (label, Regset.inter psg.nodes.(node_id).may_use mask)
            | Psg.Exit _ | Psg.Call _ | Psg.Return _ | Psg.Branch _ | Psg.Unknown_exit _
              ->
                assert false)
          psg.entry_nodes.(r)
      in
      let live_at_exit =
        List.map
          (fun node_id ->
            match psg.nodes.(node_id).kind with
            | Psg.Exit { block; _ } ->
                (block, Regset.inter psg.nodes.(node_id).may_use mask)
            | Psg.Entry _ | Psg.Call _ | Psg.Return _ | Psg.Branch _ | Psg.Unknown_exit _
              ->
                assert false)
          psg.exit_nodes.(r)
      in
      {
        routine = r;
        name = routine.Routine.name;
        call_class = call_classes.(r);
        live_at_entry;
        live_at_exit;
      })

let site_class (_psg : Psg.t) call_classes (info : Psg.call_info) =
  match info.targets with
  | None ->
      {
        used = Calling_standard.unknown_call_used;
        defined = Calling_standard.unknown_call_defined;
        killed = Calling_standard.unknown_call_killed;
      }
  | Some targets ->
      List.fold_left
        (fun acc target ->
          let c =
            match target with
            | Psg.Target_routine r -> call_classes.(r)
            | Psg.Target_external x ->
                {
                  used = Regset.inter x.Psg.x_used mask;
                  defined = Regset.inter x.Psg.x_defined mask;
                  killed = Regset.inter x.Psg.x_killed mask;
                }
          in
          {
            used = Regset.union acc.used c.used;
            defined = Regset.inter acc.defined c.defined;
            killed = Regset.union acc.killed c.killed;
          })
        { used = Regset.empty; defined = mask; killed = Regset.empty }
        targets

let find summaries program name =
  Option.map (fun i -> summaries.(i)) (Program.find_index program name)

(* One line per set in a vertical box indented by 2.  Each line is built
   in a buffer and printed as one token: the pretty-printer's cost is per
   token, and a register set holds dozens of names. *)
let pp ppf s =
  let b = Buffer.create 256 in
  let emit () =
    Format.pp_print_string ppf (Buffer.contents b);
    Buffer.clear b
  in
  let line label set =
    emit ();
    Format.pp_print_space ppf ();
    Buffer.add_string b label;
    Regset.add_to_buffer ~name:Reg.name b set
  in
  Format.pp_open_vbox ppf 2;
  Buffer.add_string b s.name;
  Buffer.add_char b ':';
  line "call-used=" s.call_class.used;
  line "call-defined=" s.call_class.defined;
  line "call-killed=" s.call_class.killed;
  List.iter
    (fun (label, live) -> line ("live-at-entry(" ^ label ^ ")=") live)
    s.live_at_entry;
  List.iter
    (fun (block, live) -> line ("live-at-exit(B" ^ string_of_int block ^ ")=") live)
    s.live_at_exit;
  emit ();
  Format.pp_close_box ppf ()
