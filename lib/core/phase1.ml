open Spike_support
open Spike_isa

(* Compose the call instruction's own effect with a callee summary: the
   caller observes the call's definitions first (they shadow callee uses),
   then the callee's summary. *)
let fold_call_effect ~call_def ~call_use ~may_use ~may_def ~must_def =
  ( Regset.union call_use (Regset.diff may_use call_def),
    Regset.union call_def may_def,
    Regset.union call_def must_def )

let unknown_assumption ~call_def ~call_use =
  fold_call_effect ~call_def ~call_use
    ~may_use:Calling_standard.unknown_call_used
    ~may_def:Calling_standard.unknown_call_killed
    ~must_def:Calling_standard.unknown_call_defined

(* Observability.  The iteration counter is flushed once from the local
   total, so the metrics snapshot matches [Analysis.result] exactly; the
   per-kind pop counters, the push counter and the sweep counter (one
   count per pass over a component's order) are bumped in the loop behind
   the registry's enabled flag.  All counters accumulate in per-domain
   cells, so the totals are identical whatever the parallelism. *)
let c_iterations = Spike_obs.Metrics.counter "phase1.iterations"
let c_pushes = Spike_obs.Metrics.counter "phase1.worklist.pushes"
let c_sweeps = Spike_obs.Metrics.counter "phase1.sweeps"
let c_cr_updates = Spike_obs.Metrics.counter "phase1.cr_edge_updates"

let pop_counters =
  [|
    Spike_obs.Metrics.counter "phase1.pops.entry";
    Spike_obs.Metrics.counter "phase1.pops.exit";
    Spike_obs.Metrics.counter "phase1.pops.call";
    Spike_obs.Metrics.counter "phase1.pops.return";
    Spike_obs.Metrics.counter "phase1.pops.branch";
    Spike_obs.Metrics.counter "phase1.pops.unknown_exit";
  |]

let kind_index : Psg.node_kind -> int = function
  | Psg.Entry _ -> 0
  | Psg.Exit _ -> 1
  | Psg.Call _ -> 2
  | Psg.Return _ -> 3
  | Psg.Branch _ -> 4
  | Psg.Unknown_exit _ -> 5

type warm = {
  cone : bool array;
  restore : int array;  (** packed, 6 words per node *)
  cr_restore : int array;  (** packed, 6 words per call *)
}

let cold_init (node : Psg.node) =
  match node.kind with
  | Psg.Exit _ ->
      node.may_use <- Regset.empty;
      node.may_def <- Regset.empty;
      node.must_def <- Regset.empty
  | Psg.Unknown_exit _ ->
      (* All bets are off past an unknown jump: everything may be used
         and clobbered, nothing is guaranteed defined. *)
      node.may_use <- Calling_standard.unknown_jump_live;
      node.may_def <- Calling_standard.all_allocatable;
      node.must_def <- Regset.empty
  | Psg.Entry _ | Psg.Call _ | Psg.Return _ | Psg.Branch _ ->
      node.may_use <- Regset.empty;
      node.may_def <- Regset.empty;
      node.must_def <- Regset.full

let cold_cr_init (edges : Psg.edge array) (info : Psg.call_info) =
  let e = edges.(info.cr_edge) in
  match info.targets with
  | None ->
      let may_use, may_def, must_def =
        unknown_assumption ~call_def:info.call_def ~call_use:info.call_use
      in
      e.e_may_use <- may_use;
      e.e_may_def <- may_def;
      e.e_must_def <- must_def
  | Some _ ->
      (* Nothing known about the callee yet: only the call's own
         effect.  MUST-DEF starts at top and shrinks. *)
      e.e_may_use <- info.call_use;
      e.e_may_def <- info.call_def;
      e.e_must_def <- Regset.full

let full = 0xFFFF_FFFF

(* Recompute [node]'s three sets from its outgoing edges (unboxed meet:
   union for the MAY halves, intersection for MUST-DEF); returns whether
   anything changed.  Reads only the node's own routine — every PSG edge
   is intra-routine — so concurrent recomputations in different call-graph
   components never race. *)
let recompute (psg : Psg.t) (node : Psg.node) =
  let nodes = psg.nodes and edges = psg.edges in
  let out = psg.out_edges.(node.id) in
  let n_out = Array.length out in
  if n_out = 0 then false
  else begin
    let mu_lo = ref 0 and mu_hi = ref 0 in
    let md_lo = ref 0 and md_hi = ref 0 in
    let sd_lo = ref full and sd_hi = ref full in
    for k = 0 to n_out - 1 do
      let e = edges.(Array.unsafe_get out k) in
      let dst = nodes.(e.dst) in
      let e_sd_lo = Regset.lo_bits e.e_must_def
      and e_sd_hi = Regset.hi_bits e.e_must_def in
      mu_lo :=
        !mu_lo
        lor Regset.lo_bits e.e_may_use
        lor (Regset.lo_bits dst.may_use land lnot e_sd_lo);
      mu_hi :=
        !mu_hi
        lor Regset.hi_bits e.e_may_use
        lor (Regset.hi_bits dst.may_use land lnot e_sd_hi);
      md_lo := !md_lo lor Regset.lo_bits e.e_may_def lor Regset.lo_bits dst.may_def;
      md_hi := !md_hi lor Regset.hi_bits e.e_may_def lor Regset.hi_bits dst.may_def;
      sd_lo := !sd_lo land (e_sd_lo lor Regset.lo_bits dst.must_def);
      sd_hi := !sd_hi land (e_sd_hi lor Regset.hi_bits dst.must_def)
    done;
    (* §3.4: a routine's saved-and-restored callee-saved registers are
       invisible to its callers. *)
    (match node.kind with
    | Psg.Entry { routine; _ } ->
        let mask = psg.entry_filter.(routine) in
        let m_lo = lnot (Regset.lo_bits mask) and m_hi = lnot (Regset.hi_bits mask) in
        mu_lo := !mu_lo land m_lo;
        mu_hi := !mu_hi land m_hi;
        md_lo := !md_lo land m_lo;
        md_hi := !md_hi land m_hi;
        sd_lo := !sd_lo land m_lo;
        sd_hi := !sd_hi land m_hi
    | Psg.Exit _ | Psg.Call _ | Psg.Return _ | Psg.Branch _ | Psg.Unknown_exit _ -> ());
    let changed =
      !mu_lo <> Regset.lo_bits node.may_use
      || !mu_hi <> Regset.hi_bits node.may_use
      || !md_lo <> Regset.lo_bits node.may_def
      || !md_hi <> Regset.hi_bits node.may_def
      || !sd_lo <> Regset.lo_bits node.must_def
      || !sd_hi <> Regset.hi_bits node.must_def
    in
    if changed then begin
      node.may_use <- Regset.of_bits ~lo:!mu_lo ~hi:!mu_hi;
      node.may_def <- Regset.of_bits ~lo:!md_lo ~hi:!md_hi;
      node.must_def <- Regset.of_bits ~lo:!sd_lo ~hi:!sd_hi
    end;
    changed
  end

let run ?warm ~(sched : Sched.t) (psg : Psg.t) =
  let nodes = psg.nodes and edges = psg.edges in
  let in_cone =
    match warm with None -> fun _ -> true | Some w -> fun id -> w.cone.(id)
  in
  (* --- Initialization ------------------------------------------------- *)
  let () =
    Spike_obs.Trace.with_span "phase1.init" @@ fun () ->
    Array.iter
      (fun (node : Psg.node) ->
        if in_cone node.id then cold_init node
        else
          match warm with
          | Some w ->
              let o = node.id * 6 in
              node.may_use <- Regset.of_bits ~lo:w.restore.(o) ~hi:w.restore.(o + 1);
              node.may_def <-
                Regset.of_bits ~lo:w.restore.(o + 2) ~hi:w.restore.(o + 3);
              node.must_def <-
                Regset.of_bits ~lo:w.restore.(o + 4) ~hi:w.restore.(o + 5)
          | None -> assert false)
      nodes;
    Array.iteri
      (fun i (info : Psg.call_info) ->
        if in_cone info.call_node then cold_cr_init edges info
        else
          match warm with
          | Some w ->
              let e = edges.(info.cr_edge) in
              let o = i * 6 in
              e.e_may_use <-
                Regset.of_bits ~lo:w.cr_restore.(o) ~hi:w.cr_restore.(o + 1);
              e.e_may_def <-
                Regset.of_bits ~lo:w.cr_restore.(o + 2) ~hi:w.cr_restore.(o + 3);
              e.e_must_def <-
                Regset.of_bits ~lo:w.cr_restore.(o + 4) ~hi:w.cr_restore.(o + 5)
          | None -> assert false)
      psg.calls
  in
  let update_cr_edge (info : Psg.call_info) =
    match info.targets with
    | None -> false
    | Some targets ->
        (* Merge the summaries of every target the call may reach: entry
           nodes for routines of the program, supplied classes for
           external code (§3.5). *)
        let may_use = ref Regset.empty
        and may_def = ref Regset.empty
        and must_def = ref Regset.full in
        List.iter
          (fun target ->
            match target with
            | Psg.Target_routine r ->
                let entry = nodes.(Psg.primary_entry_node psg r) in
                may_use := Regset.union !may_use entry.may_use;
                may_def := Regset.union !may_def entry.may_def;
                must_def := Regset.inter !must_def entry.must_def
            | Psg.Target_external c ->
                may_use := Regset.union !may_use c.Psg.x_used;
                may_def := Regset.union !may_def c.Psg.x_killed;
                must_def := Regset.inter !must_def c.Psg.x_defined)
          targets;
        let may_use, may_def, must_def =
          fold_call_effect ~call_def:info.call_def ~call_use:info.call_use
            ~may_use:!may_use ~may_def:!may_def ~must_def:!must_def
        in
        let e = edges.(info.cr_edge) in
        if
          Regset.equal e.e_may_use may_use
          && Regset.equal e.e_may_def may_def
          && Regset.equal e.e_must_def must_def
        then false
        else begin
          Spike_obs.Metrics.incr c_cr_updates;
          e.e_may_use <- may_use;
          e.e_may_def <- may_def;
          e.e_must_def <- must_def;
          true
        end
  in
  (* --- SCC-condensation schedule ------------------------------------------
     Components of the call-graph condensation in topological order,
     callees first: when a component starts, every summary it imports
     (entry nodes of callee components) is already converged, so its
     call-return edges are seeded once with final values and the fixpoint
     only iterates on intra-component cycles — CFG loops and mutual
     recursion.  A changed entry node re-marks only the component's own
     call sites; cross-component callers see the converged entry when
     their component seeds.  Inside the component, {!Sched.drain} sweeps
     callee routines before callers and each routine sink-first, so a
     reader usually pops after what it reads has settled. *)
  let comp_of_node = sched.Sched.comp_of_node in
  let dirty =
    match warm with
    | None -> fun _ -> true
    | Some w ->
        (* Only components intersecting the invalidation cone can change;
           the rest keep their restored solutions, and the schedule skips
           them. *)
        let d = Array.make sched.Sched.scc.Scc.count false in
        Array.iteri (fun id inside -> if inside then d.(comp_of_node.(id)) <- true) w.cone;
        fun c -> d.(c)
  in
  let run_comp marked c =
    let order = sched.Sched.order_p1.(c) in
    let mark id =
      if Bytes.unsafe_get marked id = '\000' then begin
        Spike_obs.Metrics.incr c_pushes;
        Bytes.unsafe_set marked id '\001'
      end
    in
    Array.iter
      (fun ci ->
        let info = psg.calls.(ci) in
        if in_cone info.call_node then ignore (update_cr_edge info))
      sched.Sched.comp_calls.(c);
    Array.iter
      (fun id ->
        match nodes.(id).kind with
        | Psg.Exit _ | Psg.Unknown_exit _ -> ()
        | Psg.Entry _ | Psg.Call _ | Psg.Return _ | Psg.Branch _ ->
            if in_cone id then mark id)
      order;
    (* Pop a marked node: recompute, mark its readers. *)
    let process id =
      let node = nodes.(id) in
      if Spike_obs.Metrics.enabled () then
        Spike_obs.Metrics.incr pop_counters.(kind_index node.kind);
      if recompute psg node then begin
        let in_edges = psg.in_edges.(id) in
        for j = 0 to Array.length in_edges - 1 do
          mark edges.(Array.unsafe_get in_edges j).src
        done;
        match node.kind with
        | Psg.Entry { routine; _ } ->
            List.iter
              (fun call_index ->
                let info = psg.calls.(call_index) in
                if comp_of_node.(info.call_node) = c && update_cr_edge info then
                  mark info.call_node)
              psg.callers_of.(routine)
        | Psg.Exit _ | Psg.Call _ | Psg.Return _ | Psg.Branch _
        | Psg.Unknown_exit _ ->
            ()
      end
    in
    Sched.drain ~sweeps:c_sweeps order marked process
  in
  let iterations =
    Spike_obs.Trace.with_span "phase1.fixpoint" @@ fun () ->
    Sched.run sched ~rev:false ~dirty run_comp
  in
  Spike_obs.Metrics.add c_iterations iterations;
  iterations
