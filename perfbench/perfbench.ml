(* perfbench: the repository benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
             [--workdir DIR] [--scale F] [--rev REV]

   One run sets the workload up, times ops for S seconds (at least
   [min_ops] of them) at jobs = 1, checks every op's output against the
   correctness gate, and prints one JSON object as its last line.  With
   --trace 0 the object carries the end-to-end metrics; with --trace 1 it
   carries the per-layer metrics of a separate traced pass and writes that
   pass's spans to DIR.  See README.md for the metrics and their units.

   The end-to-end run starts every set-up and every op in a fresh process
   of this executable (--child setup | op), as a user starts a fresh
   `spike` command: no op inherits the heap an earlier op or set-up left
   behind.  The traced run stays in one process.

   The end-to-end times are stated at a fixed machine speed: each child
   times a reference task of the benchmark's own just before its set-up or
   op (see [reference_task]). *)

open Spike_support

let now = Spike_obs.Clock.now

let median = Layers.median

(* Peak resident set of this process so far. *)
let peak_rss_bytes () =
  let lines = In_channel.with_open_text "/proc/self/status" In_channel.input_lines in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb * 1024)
  | None -> failwith "no VmHWM in /proc/self/status"

(* --- Ops -------------------------------------------------------------------- *)

type op = {
  version : int;
  secs : float;
  reference : float;  (** the reference task's seconds around the op; 0 in-process *)
  retained : int;  (** bytes the op's result keeps live, when measured *)
  peak_rss : int;  (** peak resident set of the op's process *)
  id : (string * string) option;  (** [Workload.identity]; [None] if it failed *)
}

let failed_op version =
  { version; secs = 0.0; reference = 0.0; retained = 0; peak_rss = 0; id = None }

(* An op inside this process, for the traced run.  It starts from a fully
   collected heap and the collection stays outside its time. *)
let run_op ?(root = fun f -> f ()) input engine =
  let version = input.Workload.turn in
  Gc.full_major ();
  let t0 = now () in
  match root (fun () -> Workload.op engine input) with
  | version, output ->
      let secs = now () -. t0 in
      ( {
          version;
          secs;
          reference = 0.0;
          retained = 0;
          peak_rss = 0;
          id = Some (Workload.identity input output);
        },
        Some output )
  | exception e ->
      Printf.eprintf "perfbench: op failed: %s\n%!" (Printexc.to_string e);
      (failed_op version, None)

(* Timed ops (or traced pairs) per run, at least: a median of three. *)
let min_ops = 3

(* Set-ups per end-to-end run, at least, and seconds they must fill, so
   that a cheap set-up still gets a steady median. *)
let min_setups = 5
let setup_seconds = 3.0

(* --- Child processes -------------------------------------------------------- *)

(* A child prints one line per fact, "<key> <fields...>", on its standard
   output:
     reference <reference_secs>
     setup <secs> <reference_secs> <insns> <text_bytes>
     op <version> <secs> <reference_secs> <retained_bytes> <peak_rss_bytes> <digest> <extra>
     checked <version> <digest>     (the gate's checked output, per version)
     ratios <code_size> <cycles>
     problem <text>                 (one per gate problem) *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* --- Machine speed ---------------------------------------------------------- *)

(* The machine the benchmark runs on is shared: its speed for this kind of
   work changes by a third and more over seconds to minutes, as other
   tenants load the caches and memory, so a run's median op time follows
   the machine more than the program.  Each child therefore first times
   this task: a fixed amount of the work the program's ops are made of
   (building and probing a hash table, building and sorting a list of
   boxed pairs, a full collection).  It runs no code of the library, so a
   change to the library cannot move it, while a change in the machine's
   speed moves it and the op alike.  Set-up and op times are reported at
   the speed at which the task takes [reference_secs]: a child's wall time
   times [reference_secs] over its task's time. *)
let reference_task () =
  let t0 = now () in
  let n = 80_000 in
  let table = Hashtbl.create 16 in
  for i = 0 to n do
    Hashtbl.replace table (i * 7919) (string_of_int i)
  done;
  let found = ref 0 and pairs = ref [] in
  for i = 0 to n do
    (match Hashtbl.find_opt table (i * 104729 mod (7 * n) * 7919) with
    | Some s -> found := !found + String.length s
    | None -> ());
    pairs := (i * 7919 mod n, float_of_int i) :: !pairs
  done;
  let sorted = List.sort compare !pairs in
  ignore (Sys.opaque_identity (!found + List.length sorted));
  Gc.full_major ();
  let secs = now () -. t0 in
  Gc.compact ();
  secs

(* The task's seconds the reported times are scaled to: about its time on
   the machine the benchmark was written on. *)
let reference_secs = 0.15

let at_reference_speed ~secs ~reference = secs *. reference_secs /. reference

let child_setup ?scale kind ~seed ~dir =
  let reference = reference_task () in
  let t0 = now () in
  let _, size = Workload.setup ?scale kind ~seed ~dir in
  Printf.printf "setup %.17g %.17g %d %d\n%!" (now () -. t0) reference size.Workload.insns
    size.Workload.text_bytes

(* One timed op; with [gate], the correctness gate follows it in the same
   process, after its time and peak resident set are taken.  The gate's op
   also measures the heap its result retains: Memmeter.measure collects
   the heap before and after the op, outside its time. *)
let child_op kind ~dir ~version ~gate =
  let input = Workload.files kind ~dir in
  input.Workload.turn <- version;
  let reference = reference_task () in
  let secs = ref 0.0 and peak = ref 0 in
  let timed () =
    let t0 = now () in
    let r = Workload.op Pipeline.plain input in
    secs := now () -. t0;
    peak := peak_rss_bytes ();
    r
  in
  let (version, output), retained = if gate then Memmeter.measure timed else (timed (), 0) in
  let text, extra = Workload.identity input output in
  Printf.printf "op %d %.17g %.17g %d %d %s %s\n%!" version !secs reference retained !peak text
    extra;
  if gate then begin
    let verdict = Workload.gate input (Some output) in
    Array.iteri (Printf.printf "checked %d %s\n") verdict.Workload.checked;
    Printf.printf "ratios %.17g %.17g\n" verdict.Workload.code_size_ratio
      verdict.Workload.cycles_ratio;
    List.iter (fun p -> Printf.printf "problem %s\n" (one_line p)) verdict.Workload.problems
  end

(* Run this executable with [args] and wait for it; its standard error
   passes through.  Returns whether it exited with 0 and the lines it
   printed, split at the first space. *)
let spawn args =
  let exe = Sys.executable_name in
  let out, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out in
  let lines = In_channel.input_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let split l =
    match String.index_opt l ' ' with
    | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
    | None -> (l, "")
  in
  (status = Unix.WEXITED 0, List.map split lines)

(* --- Traced run ------------------------------------------------------------- *)

(* Ops until [seconds] have passed and at least [min_ops] ran.  Only the
   final op's output is kept (for the gate), so no earlier result stays
   live while later ops run. *)
let pass ~seconds run =
  let t0 = now () in
  let rec loop i acc =
    let op, output = run i in
    if i + 1 >= min_ops && now () -. t0 >= seconds then (List.rev (op :: acc), output)
    else loop (i + 1) (op :: acc)
  in
  loop 0 []

let traced_layer =
  { Pipeline.span = Span.record; count = (fun name v -> Span.count name (float_of_int v)) }

(* The memory pass: one layered op that samples the live heap
   (Memmeter.live_bytes, after a full collection) before the op and after
   each layer whose result is retained; a layer's retained size is the
   growth since the previous sample.  The layers between two samples
   retain next to nothing (validation, the phases, which update the PSG in
   place).  Layers re-run inside the optimizer's re-analyses are not
   sampled. *)
let memory_pass input =
  let retained = Hashtbl.create 8 in
  let in_rerun = ref false and live = ref 0 in
  let span name f =
    if name = "opt.rerun" then begin
      in_rerun := true;
      Fun.protect ~finally:(fun () -> in_rerun := false) f
    end
    else if !in_rerun || not (List.exists (fun (_, l) -> l = name) Layers.retained) then f ()
    else begin
      let v = f () in
      let after = Memmeter.live_bytes () in
      Hashtbl.replace retained name
        (after - !live + Option.value ~default:0 (Hashtbl.find_opt retained name));
      live := after;
      v
    end
  in
  let root f =
    live := Memmeter.live_bytes ();
    f ()
  in
  let op, _ = run_op ~root input (Pipeline.layered { Pipeline.span; count = (fun _ _ -> ()) }) in
  (op, fun layer -> Option.value ~default:0 (Hashtbl.find_opt retained layer))

(* --- Correctness ---------------------------------------------------------- *)

(* An op fails if it raised, if its output text differs from the gate's
   checked text for its version, or if its iteration counts / optimizer
   report differ from the other ops on that version. *)
let failures (verdict : Workload.verdict) ops =
  let extras = Hashtbl.create 2 in
  List.filter
    (fun op ->
      match op.id with
      | None -> true
      | Some (text, extra) ->
          let expected = Hashtbl.find_opt extras op.version in
          if expected = None then Hashtbl.add extras op.version extra;
          verdict.Workload.problems <> []
          || op.version >= Array.length verdict.Workload.checked
          || text <> verdict.Workload.checked.(op.version)
          || (match expected with Some e -> e <> extra | None -> false))
    ops
  |> List.length

(* --- Output --------------------------------------------------------------- *)

(* All digits of a measured value.  A non-finite value (no op succeeded)
   prints as 0 so the line stays JSON; such a run is not correct anyway. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let stamp ~workload ~seed ~rev =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"ocaml\": %S, \"rev\": %S, \"jobs\": 1}"
    workload seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version rev

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

let secs ops = List.filter_map (fun o -> if o.id = None then None else Some o.secs) ops
let show ops = String.concat " " (List.map (Printf.sprintf "%.2f") (secs ops))
let sum = List.fold_left ( +. ) 0.0

(* --- End-to-end run --------------------------------------------------------- *)

(* Set-ups and timed ops alternate, so that both sample the machine over
   the whole run rather than one stretch of it.  The first op also runs
   the gate. *)
let end_to_end kind ~seconds ~child_args =
  (* The reference task's time in every child, latest first, and the place
     in it of each op's own. *)
  let speeds = ref [] and slots = ref [] in
  let setups = ref [] and size = ref None in
  let setup () =
    match spawn ([ "--child"; "setup" ] @ child_args) with
    | true, [ ("setup", fields) ] ->
        Scanf.sscanf fields "%f %f %d %d" (fun secs reference insns text_bytes ->
            setups := (secs, reference) :: !setups;
            speeds := reference :: !speeds;
            size := Some { Workload.insns; text_bytes })
    | _ -> failwith "set-up failed"
  in
  let turn = ref 0 and ops = ref [] and verdict = ref None in
  let reset_turn () = turn := Workload.versions kind - 1 in
  let op () =
    let gate = !verdict = None in
    let version = !turn in
    if kind = Workload.Reanalyze then turn := 1 - !turn;
    let ok, lines =
      spawn
        ([ "--child"; "op"; "--version"; string_of_int version ]
        @ (if gate then [ "--gate" ] else [])
        @ child_args)
    in
    let op =
      match List.assoc_opt "op" lines with
      | Some fields when ok ->
          Scanf.sscanf fields "%d %f %f %d %d %s %s"
            (fun version secs reference retained peak_rss text extra ->
              { version; secs; reference; retained; peak_rss; id = Some (text, extra) })
      | _ -> failed_op version
    in
    ops := op :: !ops;
    slots := List.length !speeds :: !slots;
    if op.id <> None then speeds := op.reference :: !speeds;
    if gate then
      verdict :=
        Some
          (if not ok then
             { Workload.checked = [||]; problems = [ "gate op failed" ];
               code_size_ratio = 1.0; cycles_ratio = 1.0 }
           else
             let checked =
               List.filter_map
                 (fun (k, f) ->
                   if k = "checked" then Some (Scanf.sscanf f "%d %s" (fun v d -> (v, d)))
                   else None)
                 lines
               |> List.sort compare |> List.map snd |> Array.of_list
             in
             let code_size_ratio, cycles_ratio =
               Scanf.sscanf (List.assoc "ratios" lines) "%f %f" (fun a b -> (a, b))
             in
             let problems =
               List.filter_map (fun (k, f) -> if k = "problem" then Some f else None) lines
             in
             { Workload.checked; problems; code_size_ratio; cycles_ratio })
  in
  let t0 = now () in
  let want_setup () =
    List.length !setups < min_setups || sum (List.map fst !setups) < setup_seconds
  in
  let want_op () =
    List.length !ops < min_ops
    || (sum (secs !ops) < seconds && List.for_all (fun o -> o.id <> None) !ops)
  in
  setup ();
  reset_turn ();
  while want_setup () || want_op () do
    if want_op () then op ();
    if want_setup () then begin
      setup ();
      reset_turn ()
    end
  done;
  (match spawn ([ "--child"; "reference" ] @ child_args) with
  | true, [ ("reference", secs) ] -> speeds := float_of_string secs :: !speeds
  | _ -> failwith "reference task failed");
  (* The machine's speed also changes during an op, so an op's reference
     time is the mean of the task's time before it, in its own process,
     and after it, in the next process. *)
  let speeds = Array.of_list (List.rev !speeds) in
  let ops =
    List.map2
      (fun o slot ->
        if o.id = None then o
        else { o with reference = (speeds.(slot) +. speeds.(slot + 1)) /. 2.0 })
      (List.rev !ops) (List.rev !slots)
  in
  let verdict = Option.get !verdict and size = Option.get !size in
  let setups = List.rev !setups and timed = List.filter (fun o -> o.id <> None) ops in
  let setup_s =
    median (List.map (fun (secs, reference) -> at_reference_speed ~secs ~reference) setups)
  in
  let op_s =
    median (List.map (fun o -> at_reference_speed ~secs:o.secs ~reference:o.reference) timed)
  in
  let peak_rss = median (List.map (fun o -> float_of_int o.peak_rss) timed) in
  log "%d set-ups (median %.2f s), %d ops in %.2f s: %s" (List.length setups)
    (median (List.map fst setups)) (List.length ops) (now () -. t0) (show ops);
  List.iter (log "gate: %s") verdict.Workload.problems;
  let line name xs =
    Printf.printf "# %s: %s\n" name (String.concat " " (List.map (Printf.sprintf "%.6f") xs))
  in
  line "op wall seconds" (List.map (fun o -> o.secs) timed);
  line "op reference seconds" (List.map (fun o -> o.reference) timed);
  line "set-up wall seconds" (List.map fst setups);
  line "set-up reference seconds" (List.map snd setups);
  ( ops,
    verdict,
    [
      ("op_s", op_s, "s");
      ("insns_per_s", float_of_int size.Workload.insns /. op_s, "insns/s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", Memmeter.megabytes (int_of_float peak_rss), "MB");
      ("retained_mb", Memmeter.megabytes (List.hd ops).retained, "MB");
      ("code_size_ratio", verdict.Workload.code_size_ratio, "ratio");
      ("cycles_ratio", verdict.Workload.cycles_ratio, "ratio");
    ] )

(* --- Traced run ------------------------------------------------------------- *)

(* The memory pass doubles as the warm-up op.  Then untraced and traced ops
   alternate, both on the same version and, on reanalyze-gcc, the same
   store: the store is put back before the traced op of each pair. *)
let traced ?scale kind ~seed ~seconds ~dir =
  let input, size = Workload.setup ?scale kind ~seed ~dir in
  let t0 = now () in
  let memory, retained = memory_pass input in
  log "memory pass: %.2f s" (now () -. t0);
  let t0 = now () in
  let pairs, last =
    pass ~seconds (fun i ->
        let restore = Workload.snapshot input in
        let plain, _ = run_op input Pipeline.plain in
        restore ();
        let traced, output = run_op ~root:(Span.op i) input (Pipeline.layered traced_layer) in
        ((plain, traced), output))
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  log "untraced/traced pass: %d pairs in %.2f s: %s / %s" (List.length pairs) (now () -. t0)
    (show plain) (show traced);
  let t0 = now () in
  let verdict = Workload.gate input last in
  log "gate: %.2f s" (now () -. t0);
  List.iter (log "gate: %s") verdict.Workload.problems;
  ( (memory :: plain) @ traced,
    verdict,
    Layers.metrics size ~op_s:(median (secs plain)) ~traced_secs:(secs traced) ~retained )

(* --- Main ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let workdir = ref ".bench_build/perfbench-work" and scale = ref None in
  let rev = ref "unknown" and child = ref "" and version = ref 0 and gate = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME analyze-winword | reanalyze-gcc | opt-vortex");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S op time to measure, in seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--workdir", Arg.Set_string workdir, "DIR where inputs, outputs and the trace go");
      ("--scale", Arg.Float (fun f -> scale := Some f), "F override the workload's program scale");
      ("--rev", Arg.Set_string rev, "REV source revision to stamp the result with");
      ( "--child",
        Arg.Set_string child,
        "setup|op|reference run one set-up, op or reference task (internal)" );
      ("--version", Arg.Set_int version, "V version an --child op reads (internal)");
      ("--gate", Arg.Set gate, " run the correctness gate after an --child op (internal)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  let kind =
    match List.assoc_opt !workload Workload.all with
    | Some k -> k
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  let seconds = !seconds and scale = !scale in
  let dir = Filename.concat !workdir !workload in
  match !child with
  | "setup" -> child_setup ?scale kind ~seed:!seed ~dir
  | "op" -> child_op kind ~dir ~version:!version ~gate:!gate
  | "reference" -> Printf.printf "reference %.17g\n" (reference_task ())
  | "" ->
      if not (Sys.file_exists !workdir) then Sys.mkdir !workdir 0o755;
      let stamp = stamp ~workload:!workload ~seed:!seed ~rev:!rev in
      Printf.printf "# stamp %s\n%!" stamp;
      let ops, verdict, metrics =
        if !trace = 0 then
          end_to_end kind ~seconds
            ~child_args:
              ([ "--workload"; !workload; "--seed"; string_of_int !seed; "--workdir"; !workdir ]
              @ match scale with Some f -> [ "--scale"; Printf.sprintf "%h" f ] | None -> [])
        else traced ?scale kind ~seed:!seed ~seconds ~dir
      in
      let attempted = List.length ops and failed = failures verdict ops in
      Printf.printf
        "# %d ops (time metrics are medians over the timed ones); fail_ratio %g; gate %s\n"
        attempted
        (float_of_int failed /. float_of_int attempted)
        (if verdict.Workload.problems = [] then "ok" else "FAILED");
      if !trace = 1 then
        Span.write_chrome
          (Filename.concat !workdir (Printf.sprintf "trace-%s-%d.json" !workload !seed))
          ~stamp;
      print_result ~correct:(failed = 0) ~attempted ~failed metrics
  | c ->
      prerr_endline ("perfbench: unknown --child " ^ c);
      exit 2
