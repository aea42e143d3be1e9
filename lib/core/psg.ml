open Spike_support
open Spike_isa
open Spike_ir

type node_kind =
  | Entry of { routine : int; label : string }
  | Exit of { routine : int; block : int }
  | Call of { routine : int; block : int }
  | Return of { routine : int; call_block : int; block : int }
  | Branch of { routine : int; block : int }
  | Unknown_exit of { routine : int; block : int }

type node = {
  id : int;
  kind : node_kind;
  mutable may_use : Regset.t;
  mutable may_def : Regset.t;
  mutable must_def : Regset.t;
}

type edge_kind = Flow | Call_return

type edge = {
  edge_id : int;
  src : int;
  dst : int;
  ekind : edge_kind;
  mutable e_may_use : Regset.t;
  mutable e_may_def : Regset.t;
  mutable e_must_def : Regset.t;
}

type external_class = {
  x_used : Regset.t;
  x_defined : Regset.t;
  x_killed : Regset.t;
}

type call_target = Target_routine of int | Target_external of external_class

type call_info = {
  call_node : int;
  return_node : int;
  cr_edge : int;
  callee : Insn.callee;
  targets : call_target list option;
  call_def : Regset.t;
  call_use : Regset.t;
}

type t = {
  program : Program.t;
  nodes : node array;
  edges : edge array;
  out_edges : int array array;
  in_edges : int array array;
  calls : call_info array;
  callers_of : int list array;
  entry_nodes : int list array;
  exit_nodes : int list array;
  unknown_exit_nodes : int list array;
  entry_filter : Regset.t array;
}

let node_count t = Array.length t.nodes
let edge_count t = Array.length t.edges

let flow_edge_count t =
  Array.fold_left
    (fun n e -> match e.ekind with Flow -> n + 1 | Call_return -> n)
    0 t.edges

let primary_entry_node t r =
  match t.entry_nodes.(r) with
  | n :: _ -> n
  | [] -> invalid_arg "Psg.primary_entry_node: routine has no entry node"

let node_routine = function
  | Entry { routine; _ }
  | Exit { routine; _ }
  | Call { routine; _ }
  | Return { routine; _ }
  | Branch { routine; _ }
  | Unknown_exit { routine; _ } ->
      routine


let call_graph t =
  let n = Program.routine_count t.program in
  let succs = Array.make n [] in
  Array.iter
    (fun (info : call_info) ->
      let caller = node_routine t.nodes.(info.call_node).kind in
      match info.targets with
      | Some targets ->
          List.iter
            (fun target ->
              match target with
              | Target_routine r -> succs.(caller) <- r :: succs.(caller)
              | Target_external _ -> ())
            targets
      | None -> ())
    t.calls;
  (* One edge per distinct (caller, callee) pair: a routine with many call
     sites to the same callee would otherwise multiply every traversal's
     edge work by its site count. *)
  Array.map (fun callees -> Array.of_list (List.sort_uniq Int.compare callees)) succs

let call_scc t = Scc.compute ~succs:(call_graph t)

let kind_string t kind =
  let rname r = (Program.get t.program r).Routine.name in
  match kind with
  | Entry { routine; label } -> Printf.sprintf "entry(%s:%s)" (rname routine) label
  | Exit { routine; block } -> Printf.sprintf "exit(%s:B%d)" (rname routine) block
  | Call { routine; block } -> Printf.sprintf "call(%s:B%d)" (rname routine) block
  | Return { routine; call_block; _ } ->
      Printf.sprintf "return(%s:B%d)" (rname routine) call_block
  | Branch { routine; block } -> Printf.sprintf "branch(%s:B%d)" (rname routine) block
  | Unknown_exit { routine; block } ->
      Printf.sprintf "jmp?(%s:B%d)" (rname routine) block

let pp_node t ppf node =
  let pr = Regset.pp ~name:Reg.name in
  Format.fprintf ppf "N%d %s  may-use=%a may-def=%a must-def=%a" node.id
    (kind_string t node.kind) pr node.may_use pr node.may_def pr node.must_def

let pp ppf t =
  Format.fprintf ppf "psg: %d nodes, %d edges@." (node_count t) (edge_count t);
  Array.iter (fun n -> Format.fprintf ppf "  %a@." (pp_node t) n) t.nodes;
  let pr = Regset.pp ~name:Reg.name in
  Array.iter
    (fun e ->
      let kind = match e.ekind with Flow -> "flow" | Call_return -> "call-ret" in
      Format.fprintf ppf "  E%d %s N%d -> N%d  may-use=%a may-def=%a must-def=%a@."
        e.edge_id kind e.src e.dst pr e.e_may_use pr e.e_may_def pr e.e_must_def)
    t.edges
