(** [interproc-10k]: three labelled 10 000-function programs (chain,
    diamond, scc), each checked cold and then re-checked after seeded
    single-function edits against the warm summary store. *)

open Harness

type subject = {
  prog : Gen.t;
  file : string;
  base : string;
  next_edit : unit -> int option;  (** a function no earlier re-check edited *)
}

let subjects ~seed ~n =
  List.mapi
    (fun j shape ->
      let bug = if (seed + j) mod 2 = 0 then Gen.Double_lock else Gen.Use_after_free in
      let prog = Gen.make ~seed:((seed * 3) + j) ~shape ~n ~bug in
      {
        prog;
        (* one file key for all three: the program cache then holds
           one 10k-function context at a time, not three *)
        file = "interproc.rs";
        base = Gen.source prog;
        next_edit = Gen.edit_sites ~seed:(seed + (1000 * (j + 1))) prog;
      })
    Gen.shapes
  |> Array.of_list

(** The labelled verdict: exactly one distinct finding, of the
    injected class, in the root; or "no issues found" for a bug-free
    program. The double-lock detector repeats its report once per
    path into the graph (32 times on the 10k diamond), so repeats of
    the same line are folded here and counted by [repeats]. *)
let verdict (prog : Gen.t) (o : Server.Proto.outcome) =
  match (Gen.expected_prefix prog, List.sort_uniq compare (lines o.out)) with
  | None, [ "no issues found" ] -> o.exit_code = 0 && o.err = ""
  | Some p, [ f ] ->
      o.exit_code = 1 && o.err = ""
      && String.length f > String.length p
      && String.sub f 0 (String.length p) = p
  | _ -> false

let run cfg r =
  let n = if cfg.smoke then 1000 else 10_000 in
  let setup () =
    (* the bug-free variant of each shape must come out clean *)
    let clean =
      List.for_all
        (fun shape ->
          let p = Gen.make ~seed:cfg.seed ~shape ~n:200 ~bug:Gen.Clean in
          verdict p (Layers.check ~file:"clean.rs" (Gen.source p)))
        Gen.shapes
    in
    (clean, subjects ~seed:cfg.seed ~n)
  in
  let setup_s, (clean, subs) = setup_median ~n:(if cfg.smoke then 1 else 5) setup in
  metric r ~kind:E2e "setup_s" "s" setup_s;
  check r "bug-free variants report no issues" clean "";
  let ns = Array.length subs in
  let cold = Vec.create () and warm = Vec.create () in
  let per_shape = Array.init ns (fun _ -> Vec.create ()) in
  let cold_out = Array.make ns "" in
  let c = Layers.counts () in
  (* op k < ns is subject k's cold check, from an empty program cache
     and summary store; after that, op k re-checks subject k mod ns
     (round-robin, so every shape gets its share of a time-bounded run)
     with a function no earlier re-check edited, so every re-check
     invalidates the summaries above its edit *)
  let cur = ref 0 in
  let step ~traced =
    let k = !cur in
    incr cur;
    let j = k mod ns and is_cold = k < ns in
    let s = subs.(j) in
    if k = 0 then begin
      Rustudy.Cache.clear_programs ();
      Rustudy.Cache.clear_summaries ()
    end;
    let e = if is_cold then None else s.next_edit () in
    let src =
      match e with
      | Some i -> Gen.source ~edit:i s.prog
      | None when is_cold -> s.base
      | None -> failwith (s.file ^ ": every edit site used")
    in
    let t0 = now () in
    let o =
      if not traced then Layers.check ~file:s.file src
      else
        let res = Spans.span "op" (fun () -> Layers.traced_check ~file:s.file src) in
        Layers.count c res;
        fst res
    in
    let dt = now () -. t0 in
    if not traced then
      if is_cold then Vec.push cold dt
      else begin
        Vec.push warm dt;
        Vec.push per_shape.(j) dt
      end;
    if is_cold then cold_out.(j) <- o.out;
    op r
      (verdict s.prog o && o.out = cold_out.(j))
      (fun () ->
        Printf.sprintf "%s %s: want one %s finding in %s, got %S" s.file
          (match e with None -> "cold" | Some i -> Printf.sprintf "edit of function %d" i)
          (Gen.bug_name s.prog.Gen.bug) s.prog.Gen.root o.out)
  in
  let g0 = Gc.quick_stat () and prog0 = Rustudy.Cache.program_cache_counts ()
  and sum0 = Rustudy.Cache.summary_cache_counts () in
  measured cfg r
    ~plain:(fun () -> step ~traced:false)
    ~traced:(fun () -> step ~traced:true);
  gc_rows r ~ops:r.attempted g0;
  latency_rows r ~tail:0.9 warm;
  metric r ~kind:E2e "peak_rss_mb" "MB" (peak_rss_mb ());
  Array.iteri
    (fun j out ->
      let ls = lines out in
      metric r
        ("detectors.repeated_findings." ^ Scale_gen.shape_name subs.(j).prog.Gen.shape)
        "count"
        (float_of_int (List.length ls - List.length (List.sort_uniq compare ls))))
    cold_out;
  if Vec.length cold = ns then
    metric r ~samples:ns "cold_check_s" "s" (geomean (Array.to_list (Vec.sorted cold)));
  Array.iteri
    (fun j v ->
      metric r ~samples:(Vec.length v)
        ("recheck_ms_p50." ^ Scale_gen.shape_name subs.(j).prog.Gen.shape)
        "ms"
        (1e3 *. quantile (Vec.sorted v) 0.5))
    per_shape;
  if cfg.trace then begin
    Layers.share_rows r;
    Layers.count_rows r ~ops:(Spans.count "op") c ~prog0 ~sum0;
    let side = Layers.side_rows r (Array.to_list (Array.map (fun s -> (s.file, s.base)) subs)) in
    Layers.print_self_times r ~side
  end
