(* Golden snapshots of detector findings.

   [gen.exe] prints one line per (entry, finding): "<id>|<finding>",
   findings sorted per entry so the snapshot is insensitive to emission
   order (test/golden_findings.txt).

   [gen.exe interproc] prints the two summary-carrying detectors'
   findings as "<id>|<dl|uaf|uaf-noext>|<finding>" in emission order,
   over every corpus entry and every [Fault.mutations ~seed:0x5EED]
   mutant that lowers in recovery mode (test/golden_interproc.txt).
   Unsorted on purpose: it pins the summary schedule, not just the set
   of findings.

   [gen.exe telemetry] records fixed spans, instants, flight events and
   metrics under an injected clock, with names and fields holding
   characters JSON must escape, and prints the Chrome trace, the
   flight dump (pid masked) and both metrics exports
   (test/golden_telemetry.txt). Raw control bytes other than newline,
   which the Prometheus text format leaves unescaped, print as <XX>. *)

let all_findings () =
  List.iter
    (fun (e : Corpus.entry) ->
      let p = Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source in
      let fs =
        List.sort compare
          (List.map Detectors.Report.to_string (Detectors.All.all p))
      in
      List.iter (fun f -> Printf.printf "%s|%s\n" e.Corpus.id f) fs)
    Corpus.all_bugs

let interproc () =
  let emit id (p : Rustudy.Mir.program) =
    let out tag fs =
      List.iter
        (fun f -> Printf.printf "%s|%s|%s\n" id tag (Detectors.Report.to_string f))
        fs
    in
    out "dl" (Detectors.Double_lock.run p);
    out "uaf" (Detectors.Uaf.run ~assume_extern_derefs:true p);
    out "uaf-noext" (Detectors.Uaf.run ~assume_extern_derefs:false p)
  in
  List.iter
    (fun (e : Corpus.entry) ->
      emit e.Corpus.id
        (Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source))
    Corpus.all_bugs;
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (mname, mutated) ->
          let id = e.Corpus.id ^ "+" ^ mname in
          (* recovery mode, like the serve pipeline: malformed regions
             degrade to diagnostics and the rest still reaches MIR *)
          match
            Rustudy.Cache.load_ctx_recovering ~cache:false ~file:(id ^ ".rs")
              mutated
          with
          | Ok ctx -> emit id (Rustudy.Cache.program ctx)
          | Error _ -> ())
        (Rustudy.Fault.mutations ~seed:0x5EED e.Corpus.source))
    Corpus.all_bugs

(* every character class a JSON string writer must treat specially:
   quote, backslash, the short-escaped controls, another control byte,
   and a two-byte UTF-8 sequence *)
let odd = "q\"b\\n\nt\tr\rc\001e\xc3\xa9"

let telemetry () =
  let module Trace = Support.Trace in
  let module Flight = Support.Flight in
  let module Metrics = Support.Metrics in
  let clock = ref 0L in
  Trace.set_clock
    (Some
       (fun () ->
         clock := Int64.add !clock 1500L;
         !clock));
  Metrics.enable ();
  Trace.enable ();
  Trace.with_span ~cat:("cat " ^ odd)
    ~args:[ ("arg " ^ odd, "val " ^ odd); ("plain", "x") ]
    ("span " ^ odd)
    (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.instant ~args:[ ("k", odd) ] ("instant " ^ odd));
  (* a second domain's ring, created after the capacity change, wraps
     and reports its drops *)
  Trace.set_ring_capacity 16;
  Domain.join
    (Domain.spawn (fun () ->
         for i = 1 to 20 do
           Trace.instant ~args:[ ("i", string_of_int i) ] "tick"
         done));
  Trace.disable ();
  (* the calling domain's ring is resized in place and wraps *)
  Flight.set_ring_capacity 16;
  for i = 1 to 20 do
    Flight.record ~fields:[ ("i", string_of_int i) ] "tock"
  done;
  Flight.record ~fields:[ ("field " ^ odd, "value " ^ odd) ] ("kind " ^ odd);
  let c =
    Metrics.counter ~labels:[ "l" ] ~help:("help " ^ odd) ("golden_count " ^ odd)
  in
  Metrics.incr c ~labels:[ odd ];
  Metrics.incr c ~by:2. ~labels:[ "plain" ];
  let g = Metrics.gauge ~help:"a gauge" "golden_gauge" in
  Metrics.set g 2.5;
  let h =
    Metrics.histogram ~buckets:[ 1.; 10. ] ~labels:[ "l" ] ~help:"a histogram"
      "golden_hist"
  in
  List.iter (Metrics.observe h ~labels:[ odd ]) [ 0.5; 5.; 50. ];
  let pid = Str.regexp "\"pid\":[0-9]+" in
  let flight = Str.global_replace pid "\"pid\":PID" (Flight.dump_jsonl ()) in
  let b = Buffer.create 4096 in
  List.iter
    (fun (title, body) ->
      Printf.bprintf b "== %s ==\n%s" title body)
    [
      ("trace", Trace.export_chrome ());
      ("flight", flight);
      ("metrics prometheus", Metrics.export_prometheus ());
      ("metrics json", Metrics.export_json ());
    ];
  String.iter
    (fun c ->
      if c <> '\n' && Char.code c < 0x20 then Printf.printf "<%02X>" (Char.code c)
      else print_char c)
    (Buffer.contents b)

let () =
  match Sys.argv with
  | [| _ |] -> all_findings ()
  | [| _; "interproc" |] -> interproc ()
  | [| _; "telemetry" |] -> telemetry ()
  | _ ->
      prerr_endline "usage: gen.exe [interproc|telemetry]";
      exit 2
