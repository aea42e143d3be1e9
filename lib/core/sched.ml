open Spike_support

type t = {
  scc : Scc.t;
  comp_of_node : int array;
  order_p1 : int array array;
  order_p2 : int array array;
  comp_calls : int array array;
  pool : Pool.t option;
}

(* Observability: component counts let a trace distinguish "many small
   components" (schedule-friendly) from "one giant recursion knot". *)
let c_comps = Spike_obs.Metrics.counter "sched.components"
let c_comps_run = Spike_obs.Metrics.counter "sched.components.run"

let make ?pool (psg : Psg.t) =
  let scc = Psg.call_scc psg in
  Spike_obs.Metrics.add c_comps scc.Scc.count;
  let n = Psg.node_count psg in
  let routines = Array.length scc.Scc.comp_of in
  let comp_of_node = Array.make n 0 in
  let routine_of = Array.make n 0 in
  (* Counting sort of the node ids by routine, each routine's ids
     descending: the local pass numbers entries first and the rest in
     block layout order, so this mostly puts nodes before their readers. *)
  let start = Array.make (routines + 1) 0 in
  Array.iter
    (fun (node : Psg.node) ->
      let r = Psg.node_routine node.Psg.kind in
      routine_of.(node.Psg.id) <- r;
      comp_of_node.(node.Psg.id) <- scc.Scc.comp_of.(r);
      start.(r + 1) <- start.(r + 1) + 1)
    psg.Psg.nodes;
  for r = 1 to routines do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  let fill = Array.sub start 0 (max routines 1) in
  let by_routine = Array.make n 0 in
  for id = n - 1 downto 0 do
    let r = routine_of.(id) in
    by_routine.(fill.(r)) <- id;
    fill.(r) <- fill.(r) + 1
  done;
  let order_of members =
    let size =
      Array.fold_left (fun acc r -> acc + start.(r + 1) - start.(r)) 0 members
    in
    let order = Array.make size 0 in
    let pos = ref 0 in
    Array.iter
      (fun r ->
        let len = start.(r + 1) - start.(r) in
        Array.blit by_routine start.(r) order !pos len;
        pos := !pos + len)
      members;
    order
  in
  let order_p1 = Array.map order_of scc.Scc.members in
  let order_p2 =
    Array.map
      (fun ms ->
        let k = Array.length ms in
        order_of (Array.init k (fun i -> ms.(k - 1 - i))))
      scc.Scc.members
  in
  let calls_acc = Array.make (max scc.Scc.count 1) [] in
  Array.iteri
    (fun i (info : Psg.call_info) ->
      let c = comp_of_node.(info.Psg.call_node) in
      calls_acc.(c) <- i :: calls_acc.(c))
    psg.Psg.calls;
  let comp_calls =
    Array.init scc.Scc.count (fun c -> Array.of_list (List.rev calls_acc.(c)))
  in
  { scc; comp_of_node; order_p1; order_p2; comp_calls; pool }

let jobs t = match t.pool with None -> 1 | Some pool -> Pool.jobs pool

let run t ~rev ~dirty f =
  let count = t.scc.Scc.count in
  let scratch () = Bytes.make (max (Array.length t.comp_of_node) 1) '\000' in
  match t.pool with
  | Some pool when Pool.jobs pool > 1 ->
      (* Components become tasks of the condensation DAG; the direction of
         "waits on" flips with the phase.  Clean components are no-op
         tasks: they run instantly but still release their dependents. *)
      let dep_counts, dependents =
        if rev then
          ( Array.map Array.length t.scc.Scc.preds,
            t.scc.Scc.succs )
        else
          ( Array.map Array.length t.scc.Scc.succs,
            t.scc.Scc.preds )
      in
      (* One scratch mark bitset per domain, checked out around each task.
         The free list is guarded by its own mutex; the handover cost is
         two lock operations per component. *)
      let free = ref (List.init (Pool.jobs pool) (fun _ -> scratch ())) in
      let free_mutex = Mutex.create () in
      let checkout () =
        Mutex.lock free_mutex;
        let ws = match !free with [] -> assert false | ws :: rest -> free := rest; ws in
        Mutex.unlock free_mutex;
        ws
      in
      let check_in ws =
        Mutex.lock free_mutex;
        free := ws :: !free;
        Mutex.unlock free_mutex
      in
      let total = Atomic.make 0 in
      Pool.run_dag pool ~dependents ~dep_counts (fun c ->
          if dirty c then begin
            Spike_obs.Metrics.incr c_comps_run;
            let ws = checkout () in
            let iters = f ws c in
            check_in ws;
            ignore (Atomic.fetch_and_add total iters)
          end);
      Atomic.get total
  | _ ->
      let ws = scratch () in
      let total = ref 0 in
      if rev then
        for c = count - 1 downto 0 do
          if dirty c then begin
            Spike_obs.Metrics.incr c_comps_run;
            total := !total + f ws c
          end
        done
      else
        for c = 0 to count - 1 do
          if dirty c then begin
            Spike_obs.Metrics.incr c_comps_run;
            total := !total + f ws c
          end
        done;
      !total

(* A node marked ahead of the cursor pops in the same sweep, one behind
   it in the next.  The orders mostly put readers after what they read,
   so most components settle in one sweep plus the empty one that proves
   it. *)
let drain ~sweeps order marked process =
  let len = Array.length order in
  let pops = ref 0 in
  let popped = ref true in
  while !popped do
    Spike_obs.Metrics.incr sweeps;
    let before = !pops in
    for i = 0 to len - 1 do
      let id = Array.unsafe_get order i in
      if Bytes.unsafe_get marked id <> '\000' then begin
        Bytes.unsafe_set marked id '\000';
        incr pops;
        process id
      end
    done;
    popped := !pops > before
  done;
  !pops
