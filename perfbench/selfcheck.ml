(* Small-scale self-check of the benchmark: every workload, end-to-end and
   traced, with the correctness gate on.  Checks the result line's shape
   against BENCHMARK.json, that each workload runs the layers it owns and
   bypasses the others (store.* only on reanalyze-gcc, opt.* only on
   opt-vortex), and that a traced op's spans cover at least 95% of it.

   selfcheck PERFBENCH_EXE BENCHMARK_JSON *)

module J = Spike_obs.Trace_check

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selfcheck: " ^ s); exit 1) fmt

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with Some v -> v | None -> fail "no field %s" name)
  | _ -> fail "not an object where %s was expected" name

let str = function J.Str s -> s | _ -> fail "not a string"
let num = function J.Num f -> f | _ -> fail "not a number"
let arr = function J.Arr l -> l | _ -> fail "not an array"
let parse what s = match J.parse s with Ok j -> j | Error e -> fail "%s: %s" what e

(* (name, unit) of every metric declared under [key]. *)
let declared spec key =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (arr (field key spec))

(* The last line of the benchmark's standard output; its progress lines
   go to [log], shown only when the run fails. *)
let run exe args ~log =
  let out, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out in
  let lines = In_channel.input_lines ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ ->
      prerr_string (In_channel.with_open_text log In_channel.input_all);
      fail "%s exited abnormally" (String.concat " " args));
  match List.rev lines with last :: _ -> last | [] -> fail "no output"

let () =
  let exe =
    if Filename.is_relative Sys.argv.(1) then Filename.concat (Sys.getcwd ()) Sys.argv.(1)
    else Sys.argv.(1)
  in
  let spec = parse "BENCHMARK.json" (In_channel.with_open_text Sys.argv.(2) In_channel.input_all) in
  let workdir = "selfcheck-work" in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  (* analyze-winword is run by hand, not declared in BENCHMARK.json; it is
     checked too. *)
  let workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" spec)) in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let line =
            run exe
              ~log:(Filename.concat workdir (Printf.sprintf "%s-%d.log" workload trace))
              [ "--workload"; workload; "--seed"; "7"; "--seconds"; "0"; "--trace";
                string_of_int trace; "--scale"; "0.02";
                "--workdir"; workdir ]
          in
          let what = Printf.sprintf "%s --trace %d" workload trace in
          let result = parse what line in
          (match result with
          | J.Obj kvs ->
              if List.sort compare (List.map fst kvs) <> [ "attempted"; "correct"; "failed"; "metrics" ]
              then fail "%s: result keys" what
          | _ -> fail "%s: result is not an object" what);
          if field "correct" result <> J.Bool true then fail "%s: not correct" what;
          if num (field "failed" result) <> 0.0 then fail "%s: failed ops" what;
          if num (field "attempted" result) < 1.0 then fail "%s: no ops" what;
          let metrics =
            match field "metrics" result with J.Obj kvs -> kvs | _ -> fail "%s: metrics" what
          in
          let got = List.map (fun (name, m) -> (name, str (field "unit" m))) metrics in
          let expected = declared spec (if trace = 0 then "end_to_end" else "per_layer") in
          if got <> expected then fail "%s: metric names or units differ from BENCHMARK.json" what;
          List.iter
            (fun (name, m) ->
              let v = num (field "value" m) in
              let owner prefix w = String.starts_with ~prefix name && workload <> w in
              if Float.is_nan v || v < 0.0 then fail "%s: %s = %g" what name v;
              if trace = 0 && v = 0.0 then fail "%s: %s is 0" what name;
              let owned prefix w = String.starts_with ~prefix name && workload = w in
              if (owner "store." "reanalyze-gcc" || owner "opt." "opt-vortex") && v <> 0.0 then
                fail "%s: %s should be 0 on this workload" what name;
              if trace = 1 && (owned "store." "reanalyze-gcc" || owned "opt." "opt-vortex")
                 && String.ends_with ~suffix:"_s" name && v = 0.0
              then fail "%s: %s is 0 on its own workload" what name;
              if name = "trace_coverage" && v < 0.95 then
                fail "%s: spans cover only %g of the traced op" what v)
            metrics;
          if trace = 1 then begin
            let path = Filename.concat workdir (Printf.sprintf "trace-%s-7.json" workload) in
            match J.validate_trace (In_channel.with_open_text path In_channel.input_all) with
            | Ok _ -> ()
            | Error e -> fail "%s: %s" path e
          end)
        [ 0; 1 ])
    (workloads @ [ "analyze-winword" ]);
  print_endline "selfcheck: ok"
