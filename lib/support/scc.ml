type t = {
  count : int;
  comp_of : int array;
  members : int array array;
  succs : int array array;
  preds : int array array;
}

(* Tarjan, with the recursion turned into an explicit frame stack.  A
   frame is a vertex plus the index of the next successor to examine;
   "returning" from a child is the moment the child's frame is popped,
   which is when the parent folds the child's lowlink into its own. *)
let compute ~succs:graph =
  let n = Array.length graph in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make (max n 1) '\000' in
  let comp_of = Array.make n (-1) in
  let stack = Array.make (max n 1) 0 in
  let stack_top = ref 0 in
  (* Explicit DFS stack, parallel arrays. *)
  let frame_v = Array.make (max n 1) 0 in
  let frame_child = Array.make (max n 1) 0 in
  let frame_top = ref 0 in
  let next_index = ref 0 in
  (* DFS finish times order the members of a component: ascending finish
     is exact postorder, successors-before-predecessors on the
     component's acyclic part. *)
  let finish = Array.make n 0 in
  let next_finish = ref 0 in
  let members_rev = ref [] in
  let count = ref 0 in
  let discover v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!stack_top) <- v;
    incr stack_top;
    Bytes.unsafe_set on_stack v '\001';
    frame_v.(!frame_top) <- v;
    frame_child.(!frame_top) <- 0;
    incr frame_top
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      discover root;
      while !frame_top > 0 do
        let f = !frame_top - 1 in
        let v = frame_v.(f) in
        let ci = frame_child.(f) in
        let out = graph.(v) in
        if ci < Array.length out then begin
          frame_child.(f) <- ci + 1;
          let w = out.(ci) in
          if index.(w) < 0 then discover w
          else if Bytes.unsafe_get on_stack w = '\001' then
            lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          decr frame_top;
          finish.(v) <- !next_finish;
          incr next_finish;
          if !frame_top > 0 then begin
            let parent = frame_v.(!frame_top - 1) in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            (* [v] roots a component: everything above it on the vertex
               stack belongs to it.  Every member has finished by now ([v]
               just did, last), so sorting by finish time is well defined;
               the members come out in postorder, which consumers
               scheduling dependency propagation inside the component
               want. *)
            let base = ref !stack_top in
            let continue = ref true in
            while !continue do
              decr base;
              let w = stack.(!base) in
              Bytes.unsafe_set on_stack w '\000';
              comp_of.(w) <- !count;
              if w = v then continue := false
            done;
            let comp = Array.sub stack !base (!stack_top - !base) in
            Array.sort (fun a b -> Int.compare finish.(a) finish.(b)) comp;
            stack_top := !base;
            members_rev := comp :: !members_rev;
            incr count
          end
        end
      done
    end
  done;
  let count = !count in
  let members = Array.make (max count 1) [||] in
  List.iteri (fun i comp -> members.(count - 1 - i) <- comp) !members_rev;
  let members = Array.sub members 0 count in
  (* Condensation adjacency: sorted, deduplicated, self loops dropped. *)
  let succ_acc = Array.make (max count 1) [] in
  let pred_acc = Array.make (max count 1) [] in
  for u = 0 to n - 1 do
    let cu = comp_of.(u) in
    Array.iter
      (fun v ->
        let cv = comp_of.(v) in
        if cv <> cu then begin
          succ_acc.(cu) <- cv :: succ_acc.(cu);
          pred_acc.(cv) <- cu :: pred_acc.(cv)
        end)
      graph.(u)
  done;
  let dedup acc =
    Array.init count (fun c -> Array.of_list (List.sort_uniq Int.compare acc.(c)))
  in
  { count; comp_of; members; succs = dedup succ_acc; preds = dedup pred_acc }

let is_trivial t = Array.for_all (fun m -> Array.length m <= 1) t.members

let largest t =
  Array.fold_left (fun best m -> max best (Array.length m)) 0 t.members
