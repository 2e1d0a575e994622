(** [study]: the paper's own end-to-end run, [rustudy study], in a
    closed loop from a cold program cache and summary store. *)

open Harness

let fresh () =
  Rustudy.Cache.clear_programs ();
  Rustudy.Cache.clear_summaries ()

(** The §7 rows of a report: (bugs, false positives) per detector. *)
let section7 report name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | [ n; bugs; fps ] when n = name -> (
          match (int_of_string_opt bugs, int_of_string_opt fps) with
          | Some b, Some f -> Some (b, f)
          | _ -> None)
      | _ -> None)
    (lines report)

(** [Server.Handlers.study ~domains:1] split into the public calls of
    [Rustudy.study_report_results], each under a span. The report's
    parts are computed right to left, the order in which the list
    literal of [Rustudy.assemble_report] evaluates them, so each layer
    pays for the same cache misses as in the monolithic call. *)
let traced () : Server.Proto.outcome =
  let span = Spans.span in
  let domains = 1 in
  let results =
    span "study.classify" (fun () -> Rustudy.analyze_corpus_results ~domains ())
  in
  let analyses = List.filter_map (fun (_, o) -> Rustudy.Classify.outcome_analysis o) results in
  let oracle =
    span "study.oracle_eval" (fun () ->
        Rustudy.Oracle_eval.render (Rustudy.Oracle_eval.run ~domains ()))
  in
  let detect =
    span "study.detector_eval" (fun () ->
        Rustudy.Detector_eval.render (Rustudy.Detector_eval.run ~domains ()))
  in
  let figures =
    span "study.figures" (fun () ->
        let f2 = Rustudy.Figures.figure2 () in
        [ Rustudy.Figures.figure1 (); f2 ])
  in
  let tables =
    span "study.tables" (fun () ->
        let open Rustudy.Tables in
        let u = unsafe_stats () in
        let f = fix_strategies analyses in
        let t4 = table4 analyses in
        let t3 = table3 analyses in
        let t2 = table2 analyses in
        [ table1 analyses; t2; t3; t4; f; u ])
  in
  span "render" (fun () ->
      let report = String.concat "\n" (tables @ figures @ [ detect; oracle ]) in
      let out = Buffer.create 8192 and err = Buffer.create 64 in
      Layers.line out report;
      Buffer.add_string out (Rustudy.Classify.provenance_block ());
      let summary = Rustudy.Classify.degraded_summary results in
      Buffer.add_string err summary;
      Layers.outcome out err (if summary = "" then 0 else 2))

let run cfg r =
  let expected = read_file (Filename.concat cfg.expected "study.txt") in
  let ok (o : Server.Proto.outcome) = o.exit_code = 0 && o.err = "" && o.out = expected in
  let study () =
    fresh ();
    Server.Handlers.study ~domains:1 ()
  in
  let setup_s, first = setup_median ~n:(if cfg.smoke then 1 else 5) study in
  metric r ~kind:E2e "setup_s" "s" setup_s;
  check r "study report = expected/study.txt" (ok first) "";
  List.iter
    (fun (name, want) ->
      let got = section7 first.out name in
      check r
        (Printf.sprintf "section 7 %s = %d bugs, %d FPs" name (fst want) (snd want))
        (got = Some want)
        (match got with Some (b, f) -> Printf.sprintf "%d/%d" b f | None -> "row missing"))
    [ ("use-after-free", (4, 3)); ("double-lock", (6, 0)) ];
  let lat = Vec.create () in
  let record o = op r (ok o) (fun () -> "study report differs from expected/study.txt") in
  let g0 = Gc.quick_stat () in
  measured cfg r
    ~plain:(fun () ->
      fresh ();
      record (timed lat (fun () -> Server.Handlers.study ~domains:1 ())))
    ~traced:(fun () ->
      fresh ();
      record (Spans.span "op" traced));
  gc_rows r ~ops:r.attempted g0;
  latency_rows r ~tail:0.9 lat;
  metric r ~kind:E2e "peak_rss_mb" "MB" (peak_rss_mb ());
  if cfg.trace then begin
    Layers.share_rows r;
    fresh ();
    let side =
      Layers.side_rows r
        (List.map (fun (e : Rustudy.Corpus.entry) -> (e.id ^ ".rs", e.source)) Rustudy.Corpus.all_bugs)
    in
    Layers.print_self_times r ~side
  end
