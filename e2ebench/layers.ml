(** The library's layers as seen from outside: the traced form of
    [rustudy check], the per-layer rows every workload reports, and the
    side measurements taken on each workload's own input programs. *)

open Harness

(** The 15 runtime-bug detectors of [Detectors.All.bugs_ctx], in its
    list order (the order its findings are concatenated in). *)
let detectors : (string * (Rustudy.Cache.t -> Rustudy.Finding.finding list)) list =
  let open Detectors in
  [
    ("uaf", fun c -> Uaf.run_ctx c);
    ("double_free", Double_free.run_ctx);
    ("invalid_free", Invalid_free.run_ctx);
    ("uninit", Uninit.run_ctx);
    ("null_deref", Null_deref.run_ctx);
    ("buffer", Buffer.run_ctx);
    ("double_lock", fun c -> Double_lock.run_ctx c);
    ("lock_order", Lock_order.run_ctx);
    ("condvar", Condvar.run_ctx);
    ("channel", Channel.run_ctx);
    ("once", Once.run_ctx);
    ("sync_misuse", Sync_misuse.run_ctx);
    ("atomicity", Atomicity.run_ctx);
    ("atomicity_sessions", Atomicity.run_with_sessions_ctx);
    ("refcell", Refcell.run_ctx);
  ]

(** Every span name an operation can be split into, in pipeline order.
    The root span of an operation is ["op"]; its self time is the
    harness's own share. *)
let layers =
  [ "analysis.program_cache"; "syntax.parse"; "sema.typeck"; "ir.lower"; "summary.scc" ]
  @ List.map (fun (d, _) -> "detectors." ^ d) detectors
  @ [
      "study.classify";
      "study.tables";
      "study.figures";
      "study.detector_eval";
      "study.oracle_eval";
      "render";
      "server.transport";
      "server.queue";
      "server.service";
    ]

(* ------------------------------------------------------------------ *)
(* rustudy check, one layer at a time                                  *)
(* ------------------------------------------------------------------ *)

let outcome out err exit_code =
  { Server.Proto.out = Buffer.contents out; err = Buffer.contents err; exit_code }

let line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

(** [Server.Handlers.check ~keep_going:true] rebuilt from its public
    layer calls, each inside a benchmark span: program-cache hit, or
    parse / typeck / lower on a miss; the SCC condensation; the 15
    detectors on one shared context; rendering. Its outcome must be
    byte-identical to the handler's — the workloads check that. A miss
    is not installed in the program cache (no public call does that
    apart from the monolithic load), which no caller here relies on:
    each one clears the cache or sends fresh source. *)
let traced_check ~file source : Server.Proto.outcome * Rustudy.Cache.t option =
  let span = Spans.span in
  let out = Buffer.create 256 and err = Buffer.create 64 in
  let fatal e =
    line err ("fatal: " ^ Printexc.to_string e);
    (outcome out err 3, None)
  in
  let ctx =
    if Rustudy.Cache.mem_program ~file source then
      span "analysis.program_cache" (fun () ->
          Rustudy.Cache.load_ctx_recovering ~file source)
    else
      match
        let crate, diags =
          span "syntax.parse" (fun () ->
              Syntax.Parser.parse_crate_recovering ~file source)
        in
        let env = span "sema.typeck" (fun () -> Sema.Env.of_crate crate) in
        span "ir.lower" (fun () ->
            Rustudy.Cache.create ~diags (Ir.Lower.lower_crate env))
      with
      | ctx -> Ok ctx
      | exception e -> Error e
  in
  match ctx with
  | Error e -> fatal e
  | Ok ctx -> (
      match
        span "summary.scc" (fun () -> ignore (Rustudy.Summary.condensation ctx));
        List.concat_map
          (fun (name, run) -> span ("detectors." ^ name) (fun () -> run ctx))
          detectors
      with
      | exception e -> fatal e
      | findings ->
          span "render" (fun () ->
              let diags = Rustudy.Cache.diags ctx in
              List.iter (fun f -> line out (Rustudy.Finding.to_string f)) findings;
              List.iter (fun d -> line err (Rustudy.Diag.to_string d)) diags;
              let code =
                if findings = [] && diags = [] then begin
                  line out "no issues found";
                  0
                end
                else if diags <> [] then 2
                else 1
              in
              (outcome out err code, Some ctx)))

let check ~file source = Server.Handlers.check ~file ~source ~keep_going:true ()

let same (a : Server.Proto.outcome) (b : Server.Proto.outcome) =
  a.exit_code = b.exit_code && String.equal a.out b.out && String.equal a.err b.err

(** Count rows of one traced check: diagnostics, MIR blocks, findings. *)
type counts = { mutable diags : int; mutable blocks : int; mutable findings : int }

let counts () = { diags = 0; blocks = 0; findings = 0 }

let count c ((o : Server.Proto.outcome), ctx) =
  match ctx with
  | None -> ()
  | Some ctx ->
      c.diags <- c.diags + List.length (Rustudy.Cache.diags ctx);
      c.blocks <-
        c.blocks
        + List.fold_left
            (fun acc (b : Rustudy.Mir.body) -> acc + Array.length b.Rustudy.Mir.blocks)
            0
            (Rustudy.Mir.body_list (Rustudy.Cache.program ctx));
      c.findings <- c.findings + if o.exit_code = 1 || o.exit_code = 2 then
          List.length (lines o.out) else 0

(* ------------------------------------------------------------------ *)
(* Per-layer rows                                                      *)
(* ------------------------------------------------------------------ *)

(* wall of the traced operations: the self times of their spans *)
let traced_wall () = Spans.self "op" +. List.fold_left (fun a l -> a +. Spans.self l) 0. layers

(** One [<layer>_share] row per layer: its self time over the total
    wall of the traced operations, so the rows (with
    [harness.other_share]) sum to 1. A layer the workload never
    enters reads 0. *)
let share_rows r =
  let total = traced_wall () in
  let share x = if total > 0. then x /. total else 0. in
  List.iter
    (fun l ->
      metric r ~kind:Layer ~samples:(Spans.count l) (l ^ "_share") "frac"
        (share (Spans.self l)))
    layers;
  metric r ~kind:Layer ~samples:(Spans.count "op") "harness.other_share" "frac"
    (share (Spans.self "op"))

(** Self-time table of the traced operations, then the side
    measurements, which are outside the sum. *)
let print_self_times r ~side =
  let ops = max 1 (Spans.count "op") in
  let total = traced_wall () in
  Printf.printf "%s self time over %d traced ops (%.3f ms/op):\n" r.workload ops
    (total *. 1e3 /. float_of_int ops);
  Printf.printf "  %-28s %12s %10s %7s\n" "layer" "calls" "ms/op" "share";
  List.iter
    (fun l ->
      let s = Spans.self l in
      if Spans.count l > 0 then
        Printf.printf "  %-28s %12d %10.4f %6.1f%%\n" l (Spans.count l)
          (s *. 1e3 /. float_of_int ops)
          (100. *. s /. total))
    (layers @ [ "op" ]);
  Printf.printf "  (op = harness and untraced gaps; rows sum to 100%%)\n";
  Printf.printf "  side measurements, outside the sum:\n";
  List.iter (fun (n, v, u) -> Printf.printf "    %-26s %12.4f %s\n" n v u) side

(* ------------------------------------------------------------------ *)
(* Side measurements                                                   *)
(* ------------------------------------------------------------------ *)

(** Each layer timed on its own over the workload's programs, every
    body forced on a fresh context so no memo hides work: lexing,
    alias, points-to, storage liveness, call graph, body digests, SCC
    condensation, cold escape summaries, and one oracle entry point
    per program. Reported per program; [programs] is capped by the
    caller. Clears the summary store. *)
let side_rows r (programs : (string * string) list) =
  let np = float_of_int (max 1 (List.length programs)) in
  let timed f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let acc = Hashtbl.create 16 in
  let add k dt = Hashtbl.replace acc k (dt +. Option.value ~default:0. (Hashtbl.find_opt acc k)) in
  let add_time k f = add k (snd (timed f)) in
  let tokens = ref 0 and oracle_pairs = ref 0 and inconclusive = ref 0 in
  List.iter
    (fun (file, source) ->
      let buf, dt =
        timed (fun () ->
            Syntax.Lexer.lex ~recover:(Support.Diag.collector ()) ~file source)
      in
      add "syntax.lex" dt;
      tokens := !tokens + buf.Syntax.Lexer.n_toks;
      match Ir.Lower.program_of_source_recovering ~file source with
      | exception _ -> ()
      | prog, diags ->
          let bodies = Rustudy.Mir.body_list prog in
          let ctx = Rustudy.Cache.create ~diags prog in
          let each f () = List.iter (fun b -> ignore (f b)) bodies in
          add_time "analysis.alias" (each (Rustudy.Cache.aliases ctx));
          add_time "analysis.pointsto" (each (Rustudy.Cache.pointsto ctx));
          add_time "analysis.storage" (each (Rustudy.Cache.storage ctx));
          add_time "analysis.callgraph" (fun () -> Rustudy.Cache.callgraph ctx);
          add_time "summary.digest" (each Rustudy.Summary.body_digest);
          add_time "summary.scc" (fun () -> Rustudy.Summary.condensation ctx);
          Rustudy.Cache.clear_summaries ();
          add_time "summary.escape" (fun () -> Rustudy.Summary.escape_summaries ctx);
          match Rustudy.Oracle.entries prog with
          | [] -> ()
          | entry :: _ ->
              let o, dt = timed (fun () -> Rustudy.Oracle.run ~entry prog) in
              add "interp.oracle" dt;
              List.iter
                (fun (_, v) ->
                  incr oracle_pairs;
                  match v with Rustudy.Oracle.Inconclusive _ -> incr inconclusive | _ -> ())
                o.Rustudy.Oracle.verdicts)
    programs;
  let ms k = 1e3 *. Option.value ~default:0. (Hashtbl.find_opt acc k) /. np in
  let n = List.length programs in
  let rows =
    List.map
      (fun k -> (k ^ "_ms", ms k, "ms"))
      [
        "syntax.lex"; "analysis.alias"; "analysis.pointsto"; "analysis.storage";
        "analysis.callgraph"; "summary.digest"; "summary.scc"; "summary.escape";
        "interp.oracle";
      ]
    @ [
        ( "syntax.tokens_per_s",
          float_of_int !tokens /. Float.max 1e-9 (Option.value ~default:0. (Hashtbl.find_opt acc "syntax.lex")),
          "1/s" );
        ( "interp.inconclusive_frac",
          float_of_int !inconclusive /. float_of_int (max 1 !oracle_pairs),
          "frac" );
      ]
  in
  List.iter (fun (k, v, u) -> metric r ~kind:Layer ~samples:n k u v) rows;
  rows

(** Per-operation counts and cache ratios over a traced phase. *)
let count_rows r ~ops c ~prog0 ~sum0 =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  metric r ~kind:Layer ~samples:ops "syntax.diags" "count" (per c.diags);
  metric r ~kind:Layer ~samples:ops "ir.blocks" "count" (per c.blocks);
  metric r ~kind:Layer ~samples:ops "detectors.findings" "count" (per c.findings);
  let ratio (h0, m0) (h1, m1) =
    let h = h1 - h0 and m = m1 - m0 in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  metric r ~kind:Layer "analysis.program_cache_hit_ratio" "frac"
    (ratio prog0 (Rustudy.Cache.program_cache_counts ()));
  metric r ~kind:Layer "summary.store_hit_ratio" "frac"
    (ratio sum0 (Rustudy.Cache.summary_cache_counts ()))
