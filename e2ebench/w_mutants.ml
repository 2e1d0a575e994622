(** [check-mutants]: keep-going [rustudy check] over the corpus and
    its seeded recovery mutants, from a cleared program cache each
    round. *)

open Harness

type input = { id : string; file : string; source : string; original : bool }

let inputs ~seed ~smoke =
  let entries = Rustudy.Corpus.all_bugs in
  let entries = if smoke then List.filteri (fun i _ -> i mod 10 = 0) entries else entries in
  List.concat_map
    (fun (e : Rustudy.Corpus.entry) ->
      { id = e.id; file = e.id ^ ".rs"; source = e.source; original = true }
      :: List.map
           (fun (m, source) ->
             { id = e.id; file = Printf.sprintf "%s.%s.rs" e.id m; source; original = false })
           (Rustudy.Fault.mutations ~seed e.source))
    entries
  |> Array.of_list

(** [test/golden_findings.txt] as id -> findings. *)
let golden path =
  let t = Hashtbl.create 256 in
  List.iter
    (fun l ->
      match String.index_opt l '|' with
      | Some i ->
          Hashtbl.add t (String.sub l 0 i) (String.sub l (i + 1) (String.length l - i - 1))
      | None -> ())
    (lines (read_file path));
  t

let run cfg r =
  let golden = golden cfg.golden in
  (* set-up: the inputs, the round-1 reference outputs, one warm-up round *)
  let setup () =
    let ins = inputs ~seed:cfg.seed ~smoke:cfg.smoke in
    Rustudy.Cache.clear_programs ();
    let refs = Array.map (fun i -> Layers.check ~file:i.file i.source) ins in
    Rustudy.Cache.clear_programs ();
    Array.iter (fun i -> ignore (Layers.check ~file:i.file i.source)) ins;
    (ins, refs)
  in
  let setup_s, (ins, refs) = setup_median ~n:(if cfg.smoke then 1 else 5) setup in
  metric r ~kind:E2e "setup_s" "s" setup_s;
  metric r "inputs" "count" (float_of_int (Array.length ins));
  let fatal = Array.to_list refs |> List.filter (fun (o : Server.Proto.outcome) -> o.exit_code = 3) in
  check r "no fatal outcome" (fatal = []) (Printf.sprintf "%d fatal" (List.length fatal));
  let off_golden =
    List.concat
      (List.mapi
         (fun k (i : input) ->
           let o = refs.(k) in
           if not (i.original && o.err = "") then []
           else
             let allowed = Hashtbl.find_all golden i.id in
             List.filter
               (fun f -> f <> "no issues found" && not (List.mem f allowed))
               (lines o.out))
         (Array.to_list ins))
  in
  check r "clean entries' findings within golden_findings.txt" (off_golden = [])
    (String.concat "; " off_golden);
  let lat = Vec.create () in
  let c = Layers.counts () in
  (* one call is one round: a cleared program cache, then every file.
     The program cache keeps each round's contexts alive until the
     next clear; the traced rebuild does not install them, so it holds
     them in [kept] for as long, or the two paths' GC work would
     differ *)
  let kept = ref [] in
  let round check_one =
    Rustudy.Cache.clear_programs ();
    kept := [];
    Array.iteri
      (fun k (i : input) ->
        op r (Layers.same (check_one i) refs.(k)) (fun () -> i.file ^ ": output differs from round 1"))
      ins
  in
  let g0 = Gc.quick_stat () and prog0 = Rustudy.Cache.program_cache_counts ()
  and sum0 = Rustudy.Cache.summary_cache_counts () in
  measured cfg r
    ~plain:(fun () -> round (fun i -> timed lat (fun () -> Layers.check ~file:i.file i.source)))
    ~traced:(fun () ->
      round (fun i ->
          let res = Spans.span "op" (fun () -> Layers.traced_check ~file:i.file i.source) in
          Layers.count c res;
          kept := snd res :: !kept;
          fst res));
  gc_rows r ~ops:r.attempted g0;
  latency_rows r ~tail:0.99 lat;
  metric r ~kind:E2e "peak_rss_mb" "MB" (peak_rss_mb ());
  if cfg.trace then begin
    Layers.share_rows r;
    Layers.count_rows r ~ops:(Spans.count "op") c ~prog0 ~sum0;
    let side =
      Layers.side_rows r
        (Array.to_list ins |> List.filteri (fun k _ -> k mod 6 = 0)
        |> List.map (fun i -> (i.file, i.source)))
    in
    Layers.print_self_times r ~side
  end
