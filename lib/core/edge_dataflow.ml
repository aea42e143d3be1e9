open Spike_support
open Spike_cfg

type sets = { may_use : Regset.t; may_def : Regset.t; must_def : Regset.t }

let empty = { may_use = Regset.empty; may_def = Regset.empty; must_def = Regset.empty }
let top_must = { may_use = Regset.empty; may_def = Regset.empty; must_def = Regset.full }

let join a b =
  {
    may_use = Regset.union a.may_use b.may_use;
    may_def = Regset.union a.may_def b.may_def;
    must_def = Regset.inter a.must_def b.must_def;
  }

let apply_block ~def ~ubd out =
  {
    may_use = Regset.union ubd (Regset.diff out.may_use def);
    may_def = Regset.union out.may_def def;
    must_def = Regset.union out.must_def def;
  }

(* One routine's sinks are solved one after another over regions of the
   same CFG, so every table is preallocated at routine size and reused.  A
   generation stamp marks the current region's blocks without an
   O(blocks) reset.  Sets are kept as their two 32-bit halves in flat int
   arrays, so the sweep allocates nothing; a [sets] record is boxed only
   when a label is read out. *)
type scratch = {
  cfg : Cfg.t;
  cut : bool array;
  du : int array;  (* block b -> def lo/hi, ubd lo/hi at 4b .. 4b+3 *)
  stamp : int array;  (* block in the current region iff stamp.(b) = gen *)
  position : int array;  (* region block -> slot; valid iff stamped *)
  mutable gen : int;
  mutable size : int;  (* region blocks *)
  order : int array;  (* slot -> block; slot 0 is the first block finished *)
  ins : int array;  (* slot i -> may_use lo/hi, may_def lo/hi, must_def lo/hi at 6i .. 6i+5 *)
  out : int array;  (* one OUT value, laid out like a slot of [ins] *)
  stack : int array;  (* DFS block stack *)
  next_pred : int array;  (* DFS stack depth -> next predecessor index *)
}

let full_half = Regset.lo_bits Regset.full

(* Dataflow cost counters.  [solve] runs concurrently on pool domains, so
   these land in Spike_obs' per-domain cells; the counts are accumulated
   locally and flushed once per solve to keep the sweep loop free of
   instrumentation. *)
let c_solves = Spike_obs.Metrics.counter "edge_dataflow.solves"
let c_sweeps = Spike_obs.Metrics.counter "edge_dataflow.sweeps"
let c_block_visits = Spike_obs.Metrics.counter "edge_dataflow.block_visits"
let c_block_updates = Spike_obs.Metrics.counter "edge_dataflow.block_updates"

let create_scratch ~cfg ~defuse ~cut =
  let n = Cfg.block_count cfg in
  if Array.length cut <> n then invalid_arg "Edge_dataflow.create_scratch: cut length";
  let du = Array.make (4 * n) 0 in
  for b = 0 to n - 1 do
    let def = Defuse.def defuse b and ubd = Defuse.ubd defuse b in
    du.(4 * b) <- Regset.lo_bits def;
    du.((4 * b) + 1) <- Regset.hi_bits def;
    du.((4 * b) + 2) <- Regset.lo_bits ubd;
    du.((4 * b) + 3) <- Regset.hi_bits ubd
  done;
  let n1 = max n 1 in
  {
    cfg;
    cut;
    du;
    stamp = Array.make n1 0;
    position = Array.make n1 0;
    gen = 0;
    size = 0;
    order = Array.make n1 0;
    ins = Array.make (6 * n1) 0;
    out = Array.make 6 0;
    stack = Array.make n1 0;
    next_pred = Array.make n1 0;
  }

(* The region of [sink]: every block that reaches it without crossing
   another cut, collected by an iterative DFS over predecessors (routines
   are deep enough to overflow a recursive one).  Blocks are numbered in
   DFS finish order, so the sink gets the last slot and, back arcs aside,
   a block's successors finish after it: sweeping slots downwards visits
   a block after its successors, the fast order for a backward problem. *)
let collect s sink =
  let blocks = s.cfg.Cfg.blocks and cut = s.cut and stamp = s.stamp in
  let gen = s.gen and stack = s.stack and next_pred = s.next_pred in
  let size = ref 0 and depth = ref 1 in
  stamp.(sink) <- gen;
  stack.(0) <- sink;
  next_pred.(0) <- 0;
  while !depth > 0 do
    let top = !depth - 1 in
    let b = stack.(top) in
    let preds = blocks.(b).Cfg.preds in
    let i = next_pred.(top) in
    if i < Array.length preds then begin
      next_pred.(top) <- i + 1;
      let p = preds.(i) in
      if (not cut.(p)) && stamp.(p) <> gen then begin
        stamp.(p) <- gen;
        stack.(!depth) <- p;
        next_pred.(!depth) <- 0;
        incr depth
      end
    end
    else begin
      s.position.(b) <- !size;
      s.order.(!size) <- b;
      incr size;
      decr depth
    end
  done;
  s.size <- !size

(* The meet of the IN sets of [b]'s successors inside the region, written
   to [s.out]; [false] when no successor lies in the region. *)
let meet_succs s b =
  let ins = s.ins and out = s.out and stamp = s.stamp and gen = s.gen in
  out.(0) <- 0;
  out.(1) <- 0;
  out.(2) <- 0;
  out.(3) <- 0;
  out.(4) <- full_half;
  out.(5) <- full_half;
  let succs = s.cfg.Cfg.blocks.(b).Cfg.succs in
  let found = ref false in
  for j = 0 to Array.length succs - 1 do
    let succ = succs.(j) in
    if stamp.(succ) = gen then begin
      found := true;
      let k = 6 * s.position.(succ) in
      out.(0) <- out.(0) lor ins.(k);
      out.(1) <- out.(1) lor ins.(k + 1);
      out.(2) <- out.(2) lor ins.(k + 2);
      out.(3) <- out.(3) lor ins.(k + 3);
      out.(4) <- out.(4) land ins.(k + 4);
      out.(5) <- out.(5) land ins.(k + 5)
    end
  done;
  !found

let solve s ~sink =
  s.gen <- s.gen + 1;
  collect s sink;
  let n = s.size in
  let du = s.du and ins = s.ins and out = s.out and order = s.order in
  for i = 0 to n - 1 do
    let k = 6 * i in
    ins.(k) <- 0;
    ins.(k + 1) <- 0;
    ins.(k + 2) <- 0;
    ins.(k + 3) <- 0;
    ins.(k + 4) <- full_half;
    ins.(k + 5) <- full_half
  done;
  let sweeps = ref 0 and updates = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr sweeps;
    for i = n - 1 downto 0 do
      let b = order.(i) in
      (* OUT: the empty boundary at the sink, else the meet over the
         successors inside the region, each of which a non-sink region
         block has. *)
      if b = sink then Array.fill out 0 6 0
      else begin
        let found = meet_succs s b in
        assert found
      end;
      (* Figure 6's transfer: IN = UBD ∪ (OUT − DEF); DEFs accumulate. *)
      let q = 4 * b in
      let def_lo = du.(q) and def_hi = du.(q + 1) in
      let u_lo = du.(q + 2) lor (out.(0) land lnot def_lo)
      and u_hi = du.(q + 3) lor (out.(1) land lnot def_hi)
      and d_lo = out.(2) lor def_lo
      and d_hi = out.(3) lor def_hi
      and m_lo = out.(4) lor def_lo
      and m_hi = out.(5) lor def_hi in
      let k = 6 * i in
      if
        u_lo <> ins.(k)
        || u_hi <> ins.(k + 1)
        || d_lo <> ins.(k + 2)
        || d_hi <> ins.(k + 3)
        || m_lo <> ins.(k + 4)
        || m_hi <> ins.(k + 5)
      then begin
        ins.(k) <- u_lo;
        ins.(k + 1) <- u_hi;
        ins.(k + 2) <- d_lo;
        ins.(k + 3) <- d_hi;
        ins.(k + 4) <- m_lo;
        ins.(k + 5) <- m_hi;
        incr updates;
        changed := true
      end
    done
  done;
  if Spike_obs.Metrics.enabled () then begin
    Spike_obs.Metrics.incr c_solves;
    Spike_obs.Metrics.add c_sweeps !sweeps;
    Spike_obs.Metrics.add c_block_visits (!sweeps * n);
    Spike_obs.Metrics.add c_block_updates !updates
  end

let mem s b = s.gen > 0 && s.stamp.(b) = s.gen

let box a k =
  {
    may_use = Regset.of_bits ~lo:a.(k) ~hi:a.(k + 1);
    may_def = Regset.of_bits ~lo:a.(k + 2) ~hi:a.(k + 3);
    must_def = Regset.of_bits ~lo:a.(k + 4) ~hi:a.(k + 5);
  }

let in_of s b =
  if mem s b then box s.ins (6 * s.position.(b))
  else invalid_arg (Printf.sprintf "Edge_dataflow.in_of: block %d not in region" b)

let join_succs s b =
  ignore (meet_succs s b);
  box s.out 0
