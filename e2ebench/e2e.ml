(** One workload of the end-to-end benchmark, in this process.

    [e2e.exe --workload W --seed N --seconds S --trace 0|1] runs
    workload [W] and prints one line per metric
    ([workload name value unit]), its correctness verdicts, and — in a
    traced run — the per-layer self-time table; the last line of
    standard output is the run's JSON result. The metric names and
    units come from [BENCHMARK.json] ([--spec]); a run that reports
    others fails a check. [run.py] builds this and starts one process
    per workload, so no two workloads share a heap. *)

open Harness

let workloads =
  [
    ("study", W_study.run);
    ("check-mutants", W_mutants.run);
    ("interproc-10k", W_interproc.run);
    ("serve-check", W_serve.run);
  ]

(** Which end-to-end metrics, on which workloads, each per-layer row
    should move: a per-layer metric follows the rule of its longest
    matching name prefix. The run checks that every per-layer metric of
    [BENCHMARK.json] has a rule and that each rule names its
    workloads and end-to-end metrics. *)
let moves : (string * (string list * string list) list) list =
  let all = List.map fst workloads in
  let frontend = [ ([ "ops_per_s"; "op_ms_p50" ], [ "check-mutants" ]); ([ "op_ms_p50" ], [ "interproc-10k" ]) ] in
  [
    ("syntax.", frontend);
    ("sema.", frontend);
    ("ir.", frontend);
    ("analysis.", [ ([ "ops_per_s" ], [ "check-mutants" ]); ([ "op_ms_p50" ], [ "study" ]) ]);
    ("analysis.program_cache", [ ([ "op_ms_p50" ], [ "serve-check"; "check-mutants" ]) ]);
    ("summary.", [ ([ "op_ms_p50"; "op_ms_tail" ], [ "interproc-10k" ]) ]);
    ("detectors.", [ ([ "op_ms_p50" ], all) ]);
    ("study.", [ ([ "op_ms_p50" ], [ "study" ]) ]);
    ("interp.", [ ([ "op_ms_p50" ], [ "study" ]) ]);
    ("render", [ ([ "op_ms_p50" ], [ "study"; "check-mutants" ]) ]);
    ("server.", [ ([ "op_ms_tail"; "ops_per_s" ], [ "serve-check" ]) ]);
    ("gen.", [ ([ "op_ms_tail" ], [ "serve-check" ]) ]);
    ("gc.", [ ([ "peak_rss_mb"; "op_ms_tail" ], all) ]);
    (* the benchmark's own cost: it moves nothing, and a change in it
       would show as a shift in every workload's op_ms_p50 *)
    ("harness.", [ ([ "op_ms_p50" ], all) ]);
    ("trace_overhead", [ ([ "op_ms_p50" ], all) ]);
  ]

let moves_of name =
  List.fold_left
    (fun best (p, m) ->
      match best with
      | Some (bp, _) when String.length bp >= String.length p -> best
      | _ -> if String.starts_with ~prefix:p name then Some (p, m) else best)
    None moves
  |> Option.map snd

let moves_text m =
  let on ws = if List.length ws = List.length workloads then "every workload" else String.concat ", " ws in
  String.concat "; " (List.map (fun (ms, ws) -> String.concat ", " ms ^ " on " ^ on ws) m)

(** The metric lists of [BENCHMARK.json]: (name, unit) of each
    end-to-end and each per-layer metric, and the workload names. *)
type spec = {
  end_to_end : (string * string) list;
  per_layer : (string * string) list;
  spec_workloads : string list;
}

let load_spec path =
  let module J = Server.Sjson in
  let v = J.parse (read_file path) in
  let list k = match J.member k v with Some (J.List l) -> l | _ -> failwith ("no " ^ k) in
  let str k o = match J.str_member k o with Some s -> s | None -> failwith ("no " ^ k) in
  let metrics k = List.map (fun m -> (str "name" m, str "unit" m)) (list k) in
  {
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
    spec_workloads = List.map (str "name") (list "workloads");
  }

(** Problems with the spec as this benchmark reads it: workloads it
    does not run, per-layer metrics without a rule, rules naming
    unknown workloads or end-to-end metrics. *)
let spec_errors spec =
  let known = List.map fst workloads in
  List.filter_map
    (fun w -> if List.mem w known then None else Some ("unknown workload " ^ w))
    spec.spec_workloads
  @ List.filter_map
      (fun (n, _) -> if moves_of n = None then Some ("no layer rule for " ^ n) else None)
      spec.per_layer
  @ List.concat_map
      (fun (p, m) ->
        List.concat_map
          (fun (ms, ws) ->
            List.filter_map
              (fun w ->
                if List.mem w spec.spec_workloads then None else Some (p ^ ": unknown workload " ^ w))
              ws
            @ List.filter_map
                (fun e ->
                  if List.mem_assoc e spec.end_to_end then None
                  else Some (p ^ ": unknown end-to-end metric " ^ e))
                ms)
          m)
      moves

(** The run's [kind] rows against the spec's list [want]: a row the
    spec does not list, or lists with another unit, is an error, and
    so (when [all]) is a listed metric the run did not report. *)
let row_errors ~all kind want ms =
  let got = List.filter (fun m -> m.kind = kind) ms in
  List.filter_map
    (fun m ->
      match List.assoc_opt m.name want with
      | None -> Some (m.name ^ " is not in BENCHMARK.json")
      | Some u when u <> m.unit_ -> Some (Printf.sprintf "%s: unit %s, BENCHMARK.json %s" m.name m.unit_ u)
      | Some _ -> None)
    got
  @
  if not all then []
  else
    List.filter_map
      (fun (n, _) -> if List.exists (fun m -> m.name = n) got then None else Some (n ^ " not reported"))
      want

let json_num x = Printf.sprintf "%.17g" x

let json_metrics ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_num m.value) m.unit_)
         ms)
  ^ "}"

let kind_name = function E2e -> "end_to_end" | Layer -> "per_layer" | Info -> "info"

(** Everything the run measured, for [run.py]'s results file. *)
let detail_json cfg r ms =
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"seconds\":%s,\"trace\":%b,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"checks\":[%s],\"metrics\":[%s]}\n"
    r.workload cfg.seed (json_num cfg.seconds) cfg.trace (correct r) r.attempted r.failed
    (String.concat ","
       (List.rev_map
          (fun (n, ok, d) -> Printf.sprintf "{\"name\":%S,\"ok\":%b,\"detail\":%S}" n ok d)
          r.checks))
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf
              "{\"name\":%S,\"value\":%s,\"unit\":%S,\"samples\":%d,\"kind\":%S,\"moves\":%S}"
              m.name (json_num m.value) m.unit_ m.samples (kind_name m.kind)
              (if m.kind = Layer then Option.fold ~none:"" ~some:moves_text (moves_of m.name)
               else ""))
          ms))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and cli = ref "_build/default/bin/rustudy_cli.exe" in
  let golden = ref "test/golden_findings.txt" and expected = ref "e2ebench/expected" in
  let out_dir = ref ".e2ebench" and spec = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json: the metric lists");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--smoke", Arg.Set smoke, " small inputs, for a quick correctness pass");
      ("--cli", Arg.Set_string cli, "PATH rustudy executable");
      ("--golden", Arg.Set_string golden, "PATH golden findings");
      ("--expected", Arg.Set_string expected, "DIR frozen reference outputs");
      ("--out", Arg.Set_string out_dir, "DIR output directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("e2e: unknown workload " ^ !workload);
        exit 2
  in
  let spec =
    match load_spec !spec with
    | s when spec_errors s = [] -> s
    | s ->
        List.iter (fun e -> prerr_endline ("e2e: " ^ !spec ^ ": " ^ e)) (spec_errors s);
        exit 2
    | exception (Sys_error _ | Failure _ | Server.Sjson.Error _ as e) ->
        prerr_endline ("e2e: " ^ !spec ^ ": " ^ Printexc.to_string e);
        exit 2
  in
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      smoke = !smoke;
      cli = !cli;
      golden = !golden;
      expected = !expected;
      out_dir = !out_dir;
    }
  in
  let r = report !workload in
  (match run cfg r with
  | () -> ()
  | exception e ->
      r.attempted <- r.attempted + 1;
      r.failed <- r.failed + 1;
      r.failures <- ("exception: " ^ Printexc.to_string e) :: r.failures);
  (* every run reports all end-to-end metrics; a traced one all
     per-layer metrics, where a layer the workload never enters
     reads 0 *)
  let names =
    row_errors ~all:(not cfg.trace) E2e spec.end_to_end r.metrics
    @ row_errors ~all:false Layer spec.per_layer r.metrics
  in
  check r "metrics match BENCHMARK.json" (names = []) (String.concat "; " names);
  if cfg.trace then begin
    List.iter
      (fun (name, unit_) ->
        if not (List.exists (fun m -> m.name = name) r.metrics) then
          metric r ~kind:Layer ~samples:0 name unit_ 0.)
      spec.per_layer;
    write_file (Filename.concat cfg.out_dir (r.workload ^ ".trace.json")) (Spans.chrome ())
  end;
  let ms = List.rev r.metrics in
  List.iter
    (fun m ->
      Printf.printf "%s %s %.6g %s  (n=%d, %s%s)\n" r.workload m.name m.value m.unit_ m.samples
        (kind_name m.kind)
        (match (m.kind, moves_of m.name) with
        | Layer, Some mv -> "; should move " ^ moves_text mv
        | _ -> ""))
    ms;
  List.iter
    (fun (n, ok, d) ->
      Printf.printf "%s check %s: %s%s\n" r.workload (if ok then "PASS" else "FAIL") n
        (if d = "" then "" else " (" ^ d ^ ")"))
    (List.rev r.checks);
  Printf.printf "%s ops attempted=%d failed=%d\n" r.workload r.attempted r.failed;
  (* failures also go to stderr, which the smoke rule keeps *)
  List.iter
    (fun f ->
      Printf.printf "%s failure: %s\n" r.workload f;
      Printf.eprintf "%s failure: %s\n" r.workload f)
    (List.rev r.failures);
  List.iter
    (fun (n, ok, d) -> if not ok then Printf.eprintf "%s check FAIL: %s (%s)\n" r.workload n d)
    (List.rev r.checks);
  write_file
    (Filename.concat cfg.out_dir (Printf.sprintf "%s.trace%d.json" r.workload !trace))
    (detail_json cfg r ms);
  let want = if cfg.trace then Layer else E2e in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" (correct r)
    (max 1 r.attempted) r.failed
    (json_metrics (List.filter (fun m -> m.kind = want) ms));
  exit (if correct r then 0 else 1)
