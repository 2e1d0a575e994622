(* Observability tests: the metrics registry and tracer must be no-ops
   while disabled, merge per-domain shards correctly, export
   byte-deterministic snapshots under an injected clock, never change
   what the detectors report, and produce traces that [tracecat]
   validates. *)

let case name f = Alcotest.test_case name `Quick f

let with_metrics f =
  let was = Support.Metrics.enabled () in
  Support.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Support.Metrics.disable ())
    f

let with_tracing f =
  let was = Support.Trace.enabled () in
  Support.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Support.Trace.disable ();
      Support.Trace.set_clock None)
    f

(* ---------------- disabled paths are no-ops ------------------------ *)

let disabled_noop =
  case "disabled recording leaves no samples" (fun () ->
      Support.Metrics.disable ();
      Support.Trace.disable ();
      Support.Metrics.reset ();
      Support.Trace.reset ();
      let c =
        Support.Metrics.counter ~help:"Test." "t_obs_disabled_total"
      in
      Support.Metrics.incr c;
      Support.Metrics.incr c ~by:41.;
      Alcotest.(check (float 0.0))
        "counter untouched" 0.
        (Support.Metrics.counter_value c);
      let r =
        Support.Trace.with_span "t_obs.disabled" (fun () -> 17)
      in
      Alcotest.(check int) "with_span passes the value through" 17 r;
      Alcotest.(check int)
        "no aggregates recorded" 0
        (List.length
           (List.filter
              (fun (a : Support.Trace.agg) ->
                a.Support.Trace.agg_name = "t_obs.disabled")
              (Support.Trace.aggregates ()))))

(* ---------------- shard merge under the domain pool ----------------- *)

let shard_merge =
  case "per-domain shards merge to the true total" (fun () ->
      with_metrics (fun () ->
          Support.Metrics.reset ();
          let c =
            Support.Metrics.counter ~labels:[ "worker" ] ~help:"Test."
              "t_obs_shard_total"
          in
          let items = List.init 100 (fun i -> i) in
          let results =
            Support.Domain_pool.map ~domains:4
              ~f:(fun i ->
                Support.Metrics.incr c ~labels:[ "any" ];
                i * 2)
              items
          in
          Alcotest.(check (list int))
            "pool results in order"
            (List.map (fun i -> i * 2) items)
            results;
          (* Domain.join before this read orders every shard write *)
          Alcotest.(check (float 0.0))
            "merged count" 100.
            (Support.Metrics.counter_value c ~labels:[ "any" ]);
          Alcotest.(check (float 0.0))
            "readable by family name" 100.
            (Support.Metrics.read_counter ~labels:[ "any" ]
               "t_obs_shard_total")))

(* ---------------- golden exporter shapes ---------------------------- *)

let golden_exports =
  case "exporter output matches the documented shape exactly" (fun () ->
      with_metrics (fun () ->
          Support.Metrics.reset ();
          let c =
            Support.Metrics.counter ~labels:[ "op" ] ~help:"Test ops."
              "t_obs_golden_ops_total"
          in
          Support.Metrics.incr c ~labels:[ "read" ];
          Support.Metrics.incr c ~labels:[ "read" ];
          Support.Metrics.incr c ~labels:[ "write" ] ~by:3.;
          let g =
            Support.Metrics.gauge ~help:"Test level." "t_obs_golden_level"
          in
          Support.Metrics.set g 2.5;
          let h =
            Support.Metrics.histogram ~buckets:[ 1.; 5. ] ~help:"Test sizes."
              "t_obs_golden_sizes"
          in
          Support.Metrics.observe h 0.5;
          Support.Metrics.observe h 3.;
          Support.Metrics.observe h 10.;
          let prom_expected =
            String.concat "\n"
              [
                "# HELP t_obs_golden_level Test level.";
                "# TYPE t_obs_golden_level gauge";
                "t_obs_golden_level 2.500000";
                "# HELP t_obs_golden_ops_total Test ops.";
                "# TYPE t_obs_golden_ops_total counter";
                "t_obs_golden_ops_total{op=\"read\"} 2";
                "t_obs_golden_ops_total{op=\"write\"} 3";
                "# HELP t_obs_golden_sizes Test sizes.";
                "# TYPE t_obs_golden_sizes histogram";
                "t_obs_golden_sizes_bucket{le=\"1\"} 1";
                "t_obs_golden_sizes_bucket{le=\"5\"} 2";
                "t_obs_golden_sizes_bucket{le=\"+Inf\"} 3";
                "t_obs_golden_sizes_sum 13.500000";
                "t_obs_golden_sizes_count 3";
                "";
              ]
          in
          Alcotest.(check string)
            "prometheus snapshot" prom_expected
            (Support.Metrics.export_prometheus ());
          let json_expected =
            "{\"metrics\":[\n"
            ^ "{\"name\":\"t_obs_golden_level\",\"type\":\"gauge\",\"help\":\"Test \
               level.\",\"samples\":[{\"labels\":{},\"value\":2.500000}]},\n"
            ^ "{\"name\":\"t_obs_golden_ops_total\",\"type\":\"counter\",\"help\":\"Test \
               ops.\",\"samples\":[{\"labels\":{\"op\":\"read\"},\"value\":2},{\"labels\":{\"op\":\"write\"},\"value\":3}]},\n"
            ^ "{\"name\":\"t_obs_golden_sizes\",\"type\":\"histogram\",\"help\":\"Test \
               sizes.\",\"samples\":[{\"labels\":{},\"count\":3,\"sum\":13.500000,\"buckets\":[{\"le\":1,\"count\":1},{\"le\":5,\"count\":2},{\"le\":\"+Inf\",\"count\":3}]}]}\n"
            ^ "]}\n"
          in
          Alcotest.(check string)
            "json snapshot" json_expected
            (Support.Metrics.export_json ())))

(* ---------------- injected-clock determinism ------------------------ *)

(* The acceptance criterion: two identical sequential runs under the
   same injected clock export byte-identical metrics and trace files. *)
let entries () =
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take 3 Corpus.all_bugs

let one_run () =
  let t = ref 0L in
  Support.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 1_000L;
         !t));
  (* purge the program cache first: the purge events it records must
     not land in the snapshot being compared *)
  Analysis.Cache.clear_programs ();
  Study.Classify.clear_provenance ();
  Support.Metrics.reset ();
  Support.Trace.reset ();
  List.iter
    (fun e -> ignore (Study.Classify.analyze_entry_result e))
    (entries ());
  let out =
    ( Support.Metrics.export_prometheus (),
      Support.Metrics.export_json (),
      Support.Trace.export_chrome (),
      Study.Classify.provenance_block () )
  in
  Support.Trace.set_clock None;
  out

let clock_determinism =
  case "two injected-clock runs export byte-identical files" (fun () ->
      with_metrics (fun () ->
          with_tracing (fun () ->
              let p1, j1, t1, b1 = one_run () in
              let p2, j2, t2, b2 = one_run () in
              Alcotest.(check string) "prometheus identical" p1 p2;
              Alcotest.(check string) "json identical" j1 j2;
              Alcotest.(check string) "chrome trace identical" t1 t2;
              Alcotest.(check string) "provenance identical" b1 b2;
              Alcotest.(check bool)
                "trace is non-trivial" true
                (String.length t1 > 200);
              Alcotest.(check bool)
                "provenance names every entry" true
                (List.for_all
                   (fun (e : Corpus.entry) ->
                     List.exists
                       (fun (p : Study.Classify.provenance) ->
                         p.Study.Classify.prov_id = e.Corpus.id)
                       (Study.Classify.provenances ()))
                   (entries ())))))

(* ---------------- findings unchanged by instrumentation ------------- *)

let findings_unchanged =
  case "tracing + metrics never change detector findings" (fun () ->
      Support.Metrics.disable ();
      Support.Trace.disable ();
      Analysis.Cache.clear_programs ();
      let run () =
        List.concat_map
          (fun (e : Corpus.entry) ->
            List.map Rustudy.Finding.to_string
              (Rustudy.check ~file:(e.Corpus.id ^ ".rs") e.Corpus.source))
          (entries ())
      in
      let off = run () in
      Analysis.Cache.clear_programs ();
      let on =
        with_metrics (fun () -> with_tracing (fun () -> run ()))
      in
      Alcotest.(check (list string)) "identical findings" off on)

(* ---------------- tracecat validation ------------------------------- *)

let tracecat_accepts =
  case "tracecat validates a real export" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          Support.Trace.with_span ~cat:"t" "outer" (fun () ->
              Support.Trace.with_span ~cat:"t" "inner" (fun () -> ());
              Support.Trace.instant "mark");
          match Tracecat_lib.validate (Support.Trace.export_chrome ()) with
          | Ok events ->
              Alcotest.(check bool)
                "at least outer+inner+mark" true
                (List.length events >= 3)
          | Error msg -> Alcotest.fail ("validate rejected a real trace: " ^ msg)))

let tracecat_escapes =
  case "tracecat validates escaped span args, which decode back" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          let odd = String.init 32 Char.chr ^ "\"\\/\xC3\xA9\xE2\x9C\x93" in
          let name = "span " ^ odd in
          let args = [ ("key " ^ odd, odd); ("plain", "x") ] in
          Support.Trace.with_span ~args name (fun () -> ());
          let text = Support.Trace.export_chrome () in
          (match Tracecat_lib.validate text with
          | Ok _ -> ()
          | Error msg -> Alcotest.fail ("validate rejected escaped args: " ^ msg));
          let decoded =
            match Support.Json.parse text with
            | Support.Json.List evs ->
                List.find_map
                  (fun ev ->
                    if Support.Json.str_member "name" ev = Some name then
                      Support.Json.member "args" ev
                    else None)
                  evs
            | _ -> None
          in
          Alcotest.(check bool)
            "args decode back" true
            (decoded
            = Some
                (Support.Json.Obj
                   (List.map (fun (k, v) -> (k, Support.Json.Str v)) args)))))

let telemetry_invalid_utf8 =
  case "telemetry writes invalid UTF-8 as U+FFFD and stays JSON" (fun () ->
      let bad = "bad\255name\xC3.rs"
      and repaired = "bad\u{FFFD}name\u{FFFD}.rs" in
      let parses what text =
        match Support.Json.parse_result text with
        | Ok v -> v
        | Error msg -> Alcotest.failf "%s is not JSON: %s" what msg
      in
      with_metrics (fun () ->
          with_tracing (fun () ->
              Support.Trace.reset ();
              Support.Trace.with_span ~args:[ ("file", bad) ] "t_obs.utf8"
                (fun () -> ());
              let text = Support.Trace.export_chrome () in
              (match Tracecat_lib.validate text with
              | Ok _ -> ()
              | Error msg -> Alcotest.fail ("tracecat rejected: " ^ msg));
              let arg =
                match parses "trace" text with
                | Support.Json.List evs ->
                    List.find_map
                      (fun ev ->
                        let name = Support.Json.str_member "name" ev in
                        if name = Some "t_obs.utf8" then
                          Option.bind (Support.Json.member "args" ev)
                            (Support.Json.str_member "file")
                        else None)
                      evs
                | _ -> None
              in
              Alcotest.(check (option string)) "trace arg" (Some repaired) arg);
          Support.Flight.record ~fields:[ ("file", bad) ] "t_obs.utf8";
          Alcotest.(check (option string))
            "flight field" (Some repaired)
            (String.split_on_char '\n' (Support.Flight.dump_jsonl ())
            |> List.filter (( <> ) "")
            |> List.find_map (fun l ->
                   let ev = parses "flight line" l in
                   if Support.Json.str_member "kind" ev = Some "t_obs.utf8" then
                     Support.Json.str_member "file" ev
                   else None));
          let c =
            Support.Metrics.counter ~labels:[ "file" ] ~help:"Test."
              "t_obs_utf8_total"
          in
          Support.Metrics.incr c ~labels:[ bad ];
          ignore (parses "metrics export" (Support.Metrics.export_json ()))))

let tracecat_rejects =
  case "tracecat rejects malformed and overlapping traces" (fun () ->
      let invalid text =
        match Tracecat_lib.validate text with
        | Ok _ -> false
        | Error _ -> true
      in
      Alcotest.(check bool) "not JSON" true (invalid "wibble");
      Alcotest.(check bool)
        "not an array" true
        (invalid "{\"name\":\"x\"}");
      Alcotest.(check bool)
        "missing fields" true
        (invalid "[\n{\"name\":\"a\",\"ph\":\"X\",\"ts\":1.0}\n]");
      Alcotest.(check bool)
        "negative duration" true
        (invalid
           "[\n\
            {\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.0,\"dur\":-2.0}\n\
            ]");
      Alcotest.(check bool)
        "partially overlapping spans" true
        (invalid
           "[\n\
            {\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.0,\"dur\":10.0},\n\
            {\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":5.0,\"dur\":10.0}\n\
            ]");
      Alcotest.(check bool)
        "properly nested spans pass" false
        (invalid
           "[\n\
            {\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.0,\"dur\":10.0},\n\
            {\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":2.0,\"dur\":3.0},\n\
            {\"name\":\"c\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":6.0,\"dur\":4.0}\n\
            ]"))

(* ---------------- oracle spans and counters -------------------------- *)

let oracle_smoke =
  case "oracle spans validate under tracecat; counters land" (fun () ->
      with_tracing (fun () ->
          with_metrics (fun () ->
              Support.Metrics.reset ();
              Support.Trace.reset ();
              let prog =
                Rustudy.load ~file:"t_obs_oracle.rs"
                  "fn main() { let b = Box::new(1); drop(b); let x = *b; \
                   println!(\"{}\", x); }"
              in
              ignore (Rustudy.Oracle.run prog);
              let names =
                List.map
                  (fun (a : Support.Trace.agg) -> a.Support.Trace.agg_name)
                  (Support.Trace.aggregates ())
              in
              Alcotest.(check bool) "oracle.exec span" true
                (List.mem "oracle.exec" names);
              Alcotest.(check bool) "oracle.schedule span" true
                (List.mem "oracle.schedule" names);
              (match Tracecat_lib.validate (Support.Trace.export_chrome ()) with
              | Ok _ -> ()
              | Error msg ->
                  Alcotest.fail ("tracecat rejected the oracle trace: " ^ msg));
              let prom = Support.Metrics.export_prometheus () in
              let has needle =
                let re = Str.regexp_string needle in
                match Str.search_forward re prom 0 with
                | _ -> true
                | exception Not_found -> false
              in
              Alcotest.(check bool) "runs counter" true
                (has "rustudy_oracle_runs_total");
              Alcotest.(check bool) "uaf trap counter" true
                (has "rustudy_oracle_traps_total{class=\"uaf\"}"))))

(* ---------------- span aggregates / profile -------------------------- *)

let profile_aggregates =
  case "span aggregates drive the profile table" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          let t = ref 0L in
          Support.Trace.set_clock
            (Some
               (fun () ->
                 t := Int64.add !t 2_000_000L;
                 !t));
          for _ = 1 to 3 do
            Support.Trace.with_span "t_obs.work" (fun () -> ())
          done;
          let agg =
            List.find
              (fun (a : Support.Trace.agg) ->
                a.Support.Trace.agg_name = "t_obs.work")
              (Support.Trace.aggregates ())
          in
          Alcotest.(check int) "count" 3 agg.Support.Trace.agg_count;
          (* each span sees exactly one 2ms clock tick between open and
             close *)
          Alcotest.(check bool)
            "total is 3 ticks" true
            (agg.Support.Trace.agg_total_ns = 6_000_000L);
          let table = Support.Trace.profile_table () in
          Alcotest.(check bool)
            "profile table names the span" true
            (let re = Str.regexp_string "t_obs.work" in
             match Str.search_forward re table 0 with
             | _ -> true
             | exception Not_found -> false)))

let ring_drop_accounting =
  case "trace ring overflow is accounted exactly" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          (* capacity changes bind at shard creation: record on a fresh
             domain so its ring is born with the small capacity *)
          Support.Trace.set_ring_capacity 32;
          Fun.protect
            ~finally:(fun () -> Support.Trace.set_ring_capacity 32768)
            (fun () ->
              Domain.join
                (Domain.spawn (fun () ->
                     for i = 1 to 50 do
                       Support.Trace.instant
                         ~args:[ ("i", string_of_int i) ]
                         "t_obs.flood"
                     done));
              Alcotest.(check int)
                "50 instants into a 32-slot ring drop exactly 18" 18
                (Support.Trace.dropped_total ()));
          Support.Trace.reset ();
          Alcotest.(check int) "reset zeroes the drop counter" 0
            (Support.Trace.dropped_total ())))

let suite =
  [
    disabled_noop;
    shard_merge;
    golden_exports;
    clock_determinism;
    findings_unchanged;
    tracecat_accepts;
    tracecat_escapes;
    telemetry_invalid_utf8;
    tracecat_rejects;
    oracle_smoke;
    profile_aggregates;
    ring_drop_accounting;
  ]
