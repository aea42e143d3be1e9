(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   library's public functions; nothing inside the library is probed and
   Spike_obs collection stays disabled.  A span carries its name, start and
   end (monotonic seconds), the span that caused it, the op it belongs to
   and the words allocated while it ran.  Counts noted during an op (phase
   iterations, store hits, ...) are kept beside the spans.  Everything stays
   in memory until [write_chrome] at the end of the run. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  start : float;
  stop : float;
  alloc_words : float;
}

let spans : t list ref = ref []
let counts : (int * string, float) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)

(* Words allocated by this domain so far: minor-heap words plus blocks
   allocated directly in the major heap (promotions are not new words). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let a0 = alloc_words () in
  let t0 = Spike_obs.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Spike_obs.Clock.now () in
      let alloc_words = alloc_words () -. a0 in
      current := parent;
      spans :=
        { id; name; parent; op = !current_op; start = t0; stop; alloc_words }
        :: !spans)
    f

(* One op is one root span named "op"; layer spans nest under it. *)
let op i f =
  current_op := i;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> record "op" f)

let count name v =
  if !current_op >= 0 then begin
    let key = (!current_op, name) in
    let old = Option.value ~default:0.0 (Hashtbl.find_opt counts key) in
    Hashtbl.replace counts key (old +. v)
  end

let duration s = s.stop -. s.start
let of_op i = List.filter (fun s -> s.op = i) !spans

(* Per-op totals of one span name: summed seconds, summed allocated words
   and the number of spans. *)
let totals i name =
  List.fold_left
    (fun (secs, words, n) s ->
      if s.name = name then (secs +. duration s, words +. s.alloc_words, n + 1)
      else (secs, words, n))
    (0.0, 0.0, 0) (of_op i)

let counted i name = Option.value ~default:0.0 (Hashtbl.find_opt counts (i, name))

let root i = List.find (fun s -> s.op = i && s.parent = -1) !spans

(* Share of the op's wall time covered by its direct child spans. *)
let coverage i =
  let r = root i in
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = r.id then acc +. duration s else acc)
      0.0 (of_op i)
  in
  covered /. duration r

let write_chrome path ~stamp =
  let oc = open_out path in
  let origin =
    List.fold_left (fun m s -> Float.min m s.start) infinity !spans
  in
  let us t = (t -. origin) *. 1e6 in
  Printf.fprintf oc "{\"otherData\": %s,\n\"traceEvents\": [" stamp;
  List.iteri
    (fun k s ->
      Printf.fprintf oc
        "%s\n{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d, \
         \"alloc_words\": %.0f}}"
        (if k = 0 then "" else ",")
        s.name (us s.start) (duration s *. 1e6) s.id s.parent s.op s.alloc_words)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc
