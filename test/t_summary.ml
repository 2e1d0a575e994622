(* The summary-based interprocedural engine (Analysis.Summary):
   QCheck properties of the SCC condensation against a brute-force
   reachability oracle, run-to-run determinism, the in-SCC fixpoint on
   mutual recursion, the content-addressed summary store, the escape
   client, and byte-identical [check] output with tracing on and off.
   The detectors' findings over the full corpus and every fault mutant
   are pinned by the [golden_interproc.txt] diff rule in [dune]. *)

module Summary = Rustudy.Summary
module Scc = Rustudy.Summary.Scc

let case name f = Alcotest.test_case name `Quick f

(* ---------------- random digraphs ---------------------------------- *)

(* (n, succs) with n in [1..24] and a skewed edge count, as an
   adjacency array with ascending deduplicated successor lists — the
   same representation [Summary.dep_succs] produces. *)
let gen_graph =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    int_bound (3 * n) >>= fun m ->
    list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun es ->
    let tmp = Array.make n [] in
    List.iter
      (fun (u, v) -> if not (List.mem v tmp.(u)) then tmp.(u) <- v :: tmp.(u))
      es;
    let succs =
      Array.map
        (fun l ->
          let a = Array.of_list l in
          Array.sort compare a;
          a)
        tmp
    in
    return (n, succs))

let print_graph (n, succs) =
  Printf.sprintf "n=%d; %s" n
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun u vs ->
               Printf.sprintf "%d->[%s]" u
                 (String.concat ","
                    (Array.to_list (Array.map string_of_int vs))))
             succs)))

let arb_graph = QCheck.make ~print:print_graph gen_graph

(* Boolean transitive closure (Floyd–Warshall), the oracle for "same
   strongly-connected component". *)
let reach n (succs : int array array) =
  let r = Array.make_matrix n n false in
  Array.iteri (fun u vs -> Array.iter (fun v -> r.(u).(v) <- true) vs) succs;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if r.(i).(k) then
        for j = 0 to n - 1 do
          if r.(k).(j) then r.(i).(j) <- true
        done
    done
  done;
  r

let prop name f = QCheck.Test.make ~name ~count:300 arb_graph f

let scc_partition =
  prop "condense: members form a partition matching comp_of" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      let seen = Array.make n 0 in
      Array.iteri
        (fun c ms ->
          Array.iter
            (fun v ->
              seen.(v) <- seen.(v) + 1;
              assert (scc.Scc.comp_of.(v) = c))
            ms)
        scc.Scc.members;
      Array.for_all (fun k -> k = 1) seen)

let scc_oracle =
  prop "condense: same component iff mutually reachable" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      let r = reach n succs in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let together = scc.Scc.comp_of.(u) = scc.Scc.comp_of.(v) in
          let mutual = u = v || (r.(u).(v) && r.(v).(u)) in
          if together <> mutual then ok := false
        done
      done;
      !ok)

let scc_acyclic_reverse_topo =
  prop "condense: cross edges point at lower component ids (acyclic, \
        callee-first order)" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      ignore n;
      let ok = ref true in
      Array.iteri
        (fun u vs ->
          Array.iter
            (fun v ->
              let cu = scc.Scc.comp_of.(u) and cv = scc.Scc.comp_of.(v) in
              (* callees must be emitted before callers, so every edge
                 leaving a component lands in a smaller id; [order] is
                 the identity over ids, making it a valid
                 reverse-topological order *)
              if cu <> cv && cv >= cu then ok := false)
            vs)
        succs;
      !ok
      && Array.length scc.Scc.order = scc.Scc.count
      && Array.for_all
           (fun i -> scc.Scc.order.(i) = i)
           (Array.init scc.Scc.count (fun i -> i)))

let scc_has_cycle =
  prop "condense: has_cycle iff multi-member or self-loop" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      ignore n;
      Array.for_all
        (fun c ->
          let ms = scc.Scc.members.(c) in
          let expect =
            Array.length ms > 1
            || Array.exists (fun w -> w = ms.(0)) succs.(ms.(0))
          in
          scc.Scc.has_cycle.(c) = expect)
        (Array.init scc.Scc.count (fun i -> i)))

let scc_deterministic =
  prop "condense: deterministic for a given graph" (fun (n, succs) ->
      let a = Scc.condense ~n ~succs and b = Scc.condense ~n ~succs in
      a.Scc.count = b.Scc.count
      && a.Scc.comp_of = b.Scc.comp_of
      && a.Scc.members = b.Scc.members
      && a.Scc.order = b.Scc.order
      && a.Scc.has_cycle = b.Scc.has_cycle)

let scc_props =
  List.map QCheck_alcotest.to_alcotest
    [
      scc_partition;
      scc_oracle;
      scc_acyclic_reverse_topo;
      scc_has_cycle;
      scc_deterministic;
    ]

(* ---------------- determinism ------------------------------------- *)

(* Byte-identical findings: same bugs, same spans, same order, same
   rendered text. *)
let render findings = String.concat "\n" (List.map Rustudy.Finding.to_string findings)

let determinism =
  [
    case "summary mode is deterministic run-to-run" (fun () ->
        List.iter
          (fun (e : Rustudy.Corpus.entry) ->
            let p =
              Rustudy.load ~file:(e.Rustudy.Corpus.id ^ ".rs")
                e.Rustudy.Corpus.source
            in
            let once () =
              render (Detectors.Uaf.run p)
              ^ "\x00"
              ^ render (Detectors.Double_lock.run p)
            in
            Alcotest.(check string) e.Rustudy.Corpus.id (once ()) (once ()))
          Rustudy.Corpus.all_bugs);
  ]

(* ---------------- mutual recursion (in-SCC fixpoint) ---------------- *)

let cyclic_src =
  {|
pub unsafe fn ping(m: Arc<Mutex<u64>>, p: *const u8, k: u64) -> u8 {
    let v = pong(m, p, k);
    v
}
pub unsafe fn pong(m: Arc<Mutex<u64>>, p: *const u8, k: u64) -> u8 {
    let v = ping(m, p, k);
    let g = m.lock().unwrap();
    let x = *p;
    x
}
pub fn entry(m: Arc<Mutex<u64>>, p: *const u8) {
    let a = m.lock().unwrap();
    unsafe {
        let v = ping(m, p, 1);
    }
}
|}

let recursion =
  [
    case "mutually recursive SCC converges and pins its distinct findings"
      (fun () ->
        let p = Rustudy.load ~file:"cyclic.rs" cyclic_src in
        let ctx = Rustudy.Cache.create p in
        let scc = Summary.condensation ctx in
        Alcotest.(check bool)
          "one component has a cycle" true
          (Array.exists (fun b -> b) scc.Scc.has_cycle);
        Alcotest.(check bool)
          "ping/pong share a component" true
          (Array.exists (fun ms -> Array.length ms = 2) scc.Scc.members);
        (* The cycle keeps duplicating lock-path entries until the
           SCC-local round cap fires, so the raw finding count reflects
           the cap; the distinct findings are what the fixpoint
           means. *)
        let distinct fs =
          List.sort_uniq compare (List.map Rustudy.Finding.to_string fs)
        in
        Alcotest.(check (list string))
          "distinct double-lock findings"
          [
            "[double-lock] bug in `entry` at cyclic.rs:15:17-15:30: call to \
             `ping` acquires Mutex::lock on `param0` while a guard for the \
             same lock is held here";
          ]
          (distinct (Detectors.Double_lock.run p));
        Alcotest.(check (list string))
          "distinct uaf findings" []
          (distinct (Detectors.Uaf.run p)));
  ]

(* ---------------- content-addressed store -------------------------- *)

let store_src =
  (* three functions in a chain so a summary actually crosses an edge *)
  {|
pub unsafe fn sink(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let g = m.lock().unwrap();
    let x = *p;
    x
}
pub unsafe fn mid(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = sink(m, p);
    v
}
pub unsafe fn top(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = mid(m, p);
    v
}
|}

let store =
  [
    case "content store serves byte-identical findings on a warm run"
      (fun () ->
        let saved = Summary.store_min_bodies () in
        Fun.protect
          ~finally:(fun () ->
            Summary.set_store_min_bodies saved;
            Rustudy.Cache.clear_summaries ())
          (fun () ->
            Summary.set_store_min_bodies 0;
            Rustudy.Cache.clear_summaries ();
            let p = Rustudy.load ~file:"store.rs" store_src in
            let cold = render (Detectors.Uaf.run p) in
            let hits0, misses0 = Rustudy.Cache.summary_cache_counts () in
            (* fresh context, same content digests: every component
               must come out of the store *)
            let warm = render (Detectors.Uaf.run p) in
            let hits1, misses1 = Rustudy.Cache.summary_cache_counts () in
            Alcotest.(check string) "warm = cold" cold warm;
            Alcotest.(check bool) "cold run missed" true (misses0 > 0);
            Alcotest.(check int) "warm run all hits" misses0 misses1;
            Alcotest.(check bool) "warm run hit" true (hits1 > hits0)));
    case "editing one function invalidates only its callers" (fun () ->
        let saved = Summary.store_min_bodies () in
        Fun.protect
          ~finally:(fun () ->
            Summary.set_store_min_bodies saved;
            Rustudy.Cache.clear_summaries ())
          (fun () ->
            Summary.set_store_min_bodies 0;
            Rustudy.Cache.clear_summaries ();
            let p = Rustudy.load ~file:"store.rs" store_src in
            ignore (Detectors.Uaf.run p);
            let _, misses0 = Rustudy.Cache.summary_cache_counts () in
            (* touch [top] only: [sink] and [mid] keep their digests,
               so re-analysis recomputes exactly one component *)
            let edited =
              Str.global_replace
                (Str.regexp_string "let v = mid(m, p);\n    v\n}\n")
                "let v = mid(m, p);\n    let w = v;\n    w\n}\n" store_src
            in
            Alcotest.(check bool) "edit applied" true (edited <> store_src);
            let p' = Rustudy.load ~file:"store.rs" edited in
            ignore (Detectors.Uaf.run p');
            let _, misses1 = Rustudy.Cache.summary_cache_counts () in
            Alcotest.(check int) "one recompute after the edit" (misses0 + 1)
              misses1));
  ]

(* ---------------- metrics ------------------------------------------ *)

let metrics =
  [
    case "summary counters track computations and instantiations" (fun () ->
        let module M = Support.Metrics in
        let was = M.enabled () in
        Fun.protect
          ~finally:(fun () -> if not was then M.disable ())
          (fun () ->
            M.enable ();
            let read name label = M.read_counter ~labels:[ label ] name in
            let c0 = read "rustudy_summary_computed_total" "uaf" in
            let i0 = read "rustudy_summary_instantiated_total" "uaf" in
            let p = Rustudy.load ~file:"store.rs" store_src in
            ignore (Detectors.Uaf.run p);
            let c1 = read "rustudy_summary_computed_total" "uaf" in
            let i1 = read "rustudy_summary_instantiated_total" "uaf" in
            (* three bodies: three summary computations; [mid] and
               [top] each instantiate a callee summary *)
            Alcotest.(check (float 0.01)) "computed" 3.0 (c1 -. c0);
            Alcotest.(check bool) "instantiated" true (i1 -. i0 >= 2.0)));
  ]

(* ---------------- escape client ------------------------------------ *)

let escape_src =
  {|
static mut STASH: u64 = 0;
pub fn ident(x: u64) -> u64 {
    x
}
pub unsafe fn leak(x: u64, y: u64) -> u64 {
    STASH = x;
    y
}
pub unsafe fn via(a: u64, b: u64) -> u64 {
    let v = leak(a, b);
    v
}
|}

let escape =
  [
    case "escape summaries: returned and escaped params, transitively"
      (fun () ->
        let p = Rustudy.load ~file:"escape.rs" escape_src in
        let ctx = Rustudy.Cache.create p in
        let tbl = Summary.escape_summaries ctx in
        let get fn =
          match Hashtbl.find_opt tbl fn with
          | Some e -> e
          | None -> Alcotest.failf "no escape summary for %s" fn
        in
        let mem i s = Analysis.Dataflow.IntSet.mem i s in
        let id = get "ident" in
        Alcotest.(check bool) "ident returns param 0" true
          (mem 0 id.Summary.esc_returned);
        Alcotest.(check bool) "ident escapes nothing" true
          (Analysis.Dataflow.IntSet.is_empty id.Summary.esc_escaped);
        let lk = get "leak" in
        Alcotest.(check bool) "leak escapes param 0" true
          (mem 0 lk.Summary.esc_escaped);
        Alcotest.(check bool) "leak returns param 1" true
          (mem 1 lk.Summary.esc_returned);
        let v = get "via" in
        Alcotest.(check bool) "via escapes param 0 through leak" true
          (mem 0 v.Summary.esc_escaped));
  ]

(* ---------------- tracing ----------------------------------------- *)

let tracing =
  [
    case "check output is byte-identical with tracing on and off" (fun () ->
        let graph =
          Scale_gen.program ~seed:0x5CA1E ~shape:Scale_gen.Diamond ~n:200
        in
        (* a root that holds the lock across its call into function 0,
           which every sink below locks again: an interprocedural double
           lock that only the summaries can see *)
        let f0 =
          let start = String.length "pub unsafe fn " in
          String.sub graph start (String.index graph '(' - start)
        in
        let source =
          graph
          ^ Printf.sprintf
              "pub unsafe fn root(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {\n\
              \    let g = m.lock().unwrap();\n\
              \    let v = %s(m, p);\n\
              \    v\n\
               }\n"
              f0
        in
        let check () =
          (* cold caches both times: the second run must not be served
             from what the first one stored *)
          Rustudy.Cache.clear_programs ();
          Rustudy.Cache.clear_summaries ();
          Server.Handlers.check ~file:"diamond.rs" ~source ()
        in
        let untraced = check () in
        let was = Support.Trace.enabled () in
        Support.Trace.reset ();
        Support.Trace.enable ();
        let traced =
          Fun.protect
            ~finally:(fun () -> if not was then Support.Trace.disable ())
            check
        in
        Alcotest.(check string) "out" untraced.Server.Proto.out
          traced.Server.Proto.out;
        Alcotest.(check string) "err" untraced.Server.Proto.err
          traced.Server.Proto.err;
        Alcotest.(check int) "exit" untraced.Server.Proto.exit_code
          traced.Server.Proto.exit_code;
        Alcotest.(check bool) "the program has findings" true
          (untraced.Server.Proto.exit_code = 1);
        Alcotest.(check bool) "summary.compute spans recorded" true
          (List.exists
             (fun (a : Support.Trace.agg) ->
               a.Support.Trace.agg_name = "summary.compute")
             (Support.Trace.aggregates ())));
  ]

let suite =
  scc_props @ determinism @ recursion @ store @ metrics @ escape @ tracing
