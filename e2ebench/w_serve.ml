(** [serve-check]: a [rustudy serve] daemon at its default
    configuration (2 workers) under keep-going [check] traffic from two
    connections, one generator domain each. 80% of requests re-check
    an unchanged corpus file, 20% send one of its seeded mutants under
    the same file key. The cache holds one entry per file, so a mutant
    is a miss that replaces the entry and makes the file's next
    original request miss too: about 65% of requests hit. Every
    response's [out]/[exit] must equal the in-process
    [Server.Handlers.check] result for the same (file, source). *)

open Harness

let conns = 2

(* worker domains of a default-config daemon *)
let workers = 2

(** Fixed open-loop rates, requests per second: [mid] feeds the
    end-to-end latency rows. The closed-loop capacity measured on a
    2-core host, with the generator on the same cores as the daemon,
    ranged from 6k to 12k req/s with the host's load, so [high] stays
    under it. *)
let rungs = [ ("low", 1000.); ("mid", 2000.); ("high", 4000.) ]

(** The p99 latency limit a rung must meet to count towards
    [max_rate_rps]. *)
let p99_limit_ms = 2.

type item = { file : string; source : string; frame : string; expect : Server.Proto.outcome }

type daemon = { pid : int; sock : string; clients : Server.Client.t array }

let spawned : int list ref = ref []

let stop_daemon d =
  Array.iter Server.Client.close d.clients;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  spawned := List.filter (( <> ) d.pid) !spawned;
  try Sys.remove d.sock with Sys_error _ -> ()

(* never leave a daemon behind, whatever ends the run *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !spawned)

let start_daemon cfg =
  let sock = Filename.concat cfg.out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ cfg.cli; "serve"; "--socket"; sock; "--access-log-cap"; "65536" ]
    @ if cfg.trace then [ "--metrics-out"; Filename.concat cfg.out_dir "serve-metrics.prom" ] else []
  in
  (* the daemon's own output (its exit summary) goes to a log beside
     the socket *)
  let log =
    Unix.openfile (Filename.chop_suffix sock ".sock" ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process cfg.cli (Array.of_list args) Unix.stdin log log)
  in
  spawned := pid :: !spawned;
  let clients = Array.init conns (fun _ -> Server.Client.connect_retry ~attempts:200 sock) in
  let pong = Server.Client.rpc clients.(0) (Server.Client.ping ~id:0) in
  if Server.Sjson.str_member "status" pong <> Some "ok" then failwith "daemon did not answer ping";
  { pid; sock; clients }

(** The request universe: each corpus file with its source and its
    seeded mutants, all under the file's own key, pre-encoded. *)
let universe ~seed ~smoke =
  let entries = Rustudy.Corpus.all_bugs in
  let entries = if smoke then List.filteri (fun i _ -> i mod 10 = 0) entries else entries in
  Rustudy.Cache.clear_programs ();
  Array.of_list
    (List.mapi
       (fun k (e : Rustudy.Corpus.entry) ->
         let file = e.id ^ ".rs" in
         let item id source =
           {
             file;
             source;
             frame =
               Server.Frame.encode
                 (Server.Sjson.to_string
                    (Server.Client.check ~id ~keep_going:true ~source ~file ()));
             expect = Layers.check ~file source;
           }
         in
         let ms = List.map snd (Rustudy.Fault.mutations ~seed e.source) in
         (item (k * 8) e.source, Array.of_list (List.mapi (fun m s -> item ((k * 8) + m + 1) s) ms)))
       entries)

(** Request [i] of phase [phase]: a seeded file, and 1 time in 5 one
    of its mutants. *)
let pick u ~seed ~phase i =
  let r = Rustudy.Fault.rng (Hashtbl.hash (seed, phase, i)) in
  let orig, muts = u.(Rustudy.Fault.next_int r (Array.length u)) in
  if Rustudy.Fault.next_int r 5 = 0 then muts.(Rustudy.Fault.next_int r (Array.length muts))
  else orig

(** One completed request, times in seconds on the generator's clock. *)
type sample = { conn : int; due : float; sent : float; done_ : float; req : int }

(** Drive [n] requests of [phase] over the connections until [until].
    [rate = None] is a closed loop (send on reply); [Some rps] an open
    loop in which request [i] is due at [t0 + i / rps] and goes out on
    connection [i mod conns] — at its due time, or as soon as that
    connection's previous reply is in. Requests still unsent at
    [until] are returned as missed, with their due times. *)
let drive r d u ~seed ~phase ~rate ~until =
  let t0 = now () +. 0.002 in
  let per_conn c =
    let got = ref [] and missed = ref [] in
    let cl = d.clients.(c) in
    let rec go i =
      let due = match rate with None -> now () | Some rps -> t0 +. (float_of_int i /. rps) in
      if due >= until then ()
      else begin
        let t = now () in
        if t >= until then missed := due :: !missed
        else begin
          if due > t then Unix.sleepf (due -. t);
          let it = pick u ~seed ~phase i in
          let sent = now () in
          (* a severed connection fails this request, and then every
             later one on it *)
          let resp =
            try Server.Client.roundtrip_raw cl it.frame
            with Unix.Unix_error (e, _, _) -> Error (Server.Frame.Torn (Unix.error_message e))
          in
          let done_ = now () in
          let ok, req =
            match Result.map Server.Sjson.parse_result resp with
            | Ok (Ok v) ->
                let m k = Server.Sjson.member k v in
                ( m "out" = Some (Server.Sjson.Str it.expect.out)
                  && m "exit" = Some (Server.Sjson.Num (float_of_int it.expect.exit_code)),
                  Option.value ~default:(-1) (Server.Sjson.int_member "req" v) )
            | _ -> (false, -1)
          in
          got := (ok, it.file, { conn = c; due; sent; done_; req }) :: !got
        end;
        go (i + conns)
      end
    in
    go c;
    (!got, !missed)
  in
  let results = List.init conns (fun c -> Domain.spawn (fun () -> per_conn c)) |> List.map Domain.join in
  let samples = ref [] and missed = ref [] in
  List.iter
    (fun (g, m) ->
      List.iter
        (fun (ok, file, s) ->
          op r ok (fun () -> Printf.sprintf "%s: served output differs from in-process check" file);
          samples := s :: !samples)
        g;
      missed := m @ !missed)
    results;
  (!samples, !missed)

(** Latency from due time (a missed request counts as still waiting
    at [until]); lateness of the generator. *)
let rung_rows r ~name ~until (samples, missed) =
  let lat = Vec.create () and late = Vec.create () in
  List.iter
    (fun (_, l) -> Vec.push lat l)
    (List.sort compare
       (List.map (fun s -> (s.due, s.done_ -. s.due)) samples
       @ List.map (fun due -> (due, until -. due)) missed));
  List.iter (fun s -> Vec.push late (s.sent -. s.due)) samples;
  let n = Vec.length lat in
  let p50 = 1e3 *. quantile (Vec.sorted lat) 0.5 and p99 = 1e3 *. chunked_quantile lat 0.99 in
  metric r ~samples:n ("p50_ms." ^ name) "ms" p50;
  metric r ~samples:n ("p99_ms." ^ name) "ms" p99;
  metric r ~samples:n ("gen.late_ms_p99." ^ name) "ms" (1e3 *. quantile (Vec.sorted late) 0.99);
  (lat, late, p99)

(** Share of requests the generator sent over 1 ms after their due time. *)
let late_frac late =
  let k = ref 0 in
  for i = 0 to Vec.length late - 1 do
    if late.Vec.a.(i) > 0.001 then incr k
  done;
  float_of_int !k /. float_of_int (max 1 (Vec.length late))

(** The mid rung again, spans rebuilt from the access log: each
    request's round trip is split into transport (the rest),
    admission-queue wait ([queue_ns]) and service ([wall_ns] minus the
    queue wait). *)
let traced_layers r d samples ~secs =
  let v = Server.Client.rpc d.clients.(0) (Server.Client.flight ~id:1) in
  let log = Hashtbl.create 4096 in
  (match Server.Sjson.member "access_log" v with
  | Some (Server.Sjson.List ls) ->
      List.iter
        (fun l ->
          let i k = Option.value ~default:0 (Server.Sjson.int_member k l) in
          Hashtbl.replace log (i "req") (float_of_int (i "queue_ns") *. 1e-9, float_of_int (i "wall_ns") *. 1e-9))
        ls
  | _ -> ());
  let rtt = Vec.create () and queue = Vec.create () and service = Vec.create () in
  let matched = ref 0 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt log s.req with
      | None -> ()
      | Some (q, w) ->
          incr matched;
          let dur = s.done_ -. s.sent in
          let w = Float.min w dur in
          let q = Float.min q w in
          let tin = (dur -. w) /. 2. in
          Spans.record_tree ~tid:(s.conn + 1) "op" ~t0:s.sent ~dur
            [
              ("server.transport", s.sent, tin);
              ("server.queue", s.sent +. tin, q);
              ("server.service", s.sent +. tin +. q, w -. q);
              ("server.transport", s.sent +. tin +. w, dur -. w -. tin);
            ];
          Vec.push rtt dur;
          Vec.push queue q;
          Vec.push service (w -. q))
    samples;
  check r "access log covers the traced rung" (!matched = List.length samples)
    (Printf.sprintf "%d of %d requests matched" !matched (List.length samples));
  let ms v q = 1e3 *. quantile (Vec.sorted v) q in
  let n = Vec.length rtt in
  List.iter
    (fun (name, v) ->
      metric r ~samples:n (name ^ "_ms_p50") "ms" (ms v 0.5);
      metric r ~samples:n (name ^ "_ms_p99") "ms" (ms v 0.99))
    [ ("server.rtt", rtt); ("server.queue", queue); ("server.service", service) ];
  metric r ~samples:n "server.transport_ms_p50" "ms"
    (ms rtt 0.5 -. ms queue 0.5 -. ms service 0.5);
  metric r ~kind:Layer ~samples:n "server.worker_busy_frac" "frac"
    (Vec.sum service /. (secs *. float_of_int workers))

(** Program-cache (hits, misses) inside the daemon so far, from its
    metrics registry (recording is on in traced runs only). *)
let cache_counts d =
  let v = Server.Client.rpc d.clients.(0) (Server.Client.metrics ~id:3 ()) in
  let count event =
    match Server.Sjson.member "metrics" v with
    | Some (Server.Sjson.List fams) ->
        List.fold_left
          (fun acc f ->
            if Server.Sjson.str_member "name" f <> Some "rustudy_cache_program_events_total" then acc
            else
              match Server.Sjson.member "samples" f with
              | Some (Server.Sjson.List ss) ->
                  List.fold_left
                    (fun acc s ->
                      match (Server.Sjson.member "labels" s, Server.Sjson.member "value" s) with
                      | Some l, Some (Server.Sjson.Num x)
                        when Server.Sjson.str_member "event" l = Some event ->
                          acc +. x
                      | _ -> acc)
                    acc ss
              | _ -> acc)
          0. fams
    | _ -> 0.
  in
  (count "hit", count "miss")

let run cfg r =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* set-up: reference outputs, daemon start until it answers ping, and
     one warm-up pass that loads every corpus file into its cache *)
  let setup () =
    let u = universe ~seed:cfg.seed ~smoke:cfg.smoke in
    let d = start_daemon cfg in
    Array.iter
      (fun (orig, _) ->
        match Server.Client.roundtrip_raw d.clients.(0) orig.frame with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up: " ^ Server.Frame.read_error_to_string e))
      u;
    (u, d)
  in
  let setup_s, (u, d) =
    setup_median ~n:(if cfg.smoke then 1 else 5) ~release:(fun (_, d) -> stop_daemon d) setup
  in
  metric r ~kind:E2e "setup_s" "s" setup_s;
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let seed = cfg.seed in
      let phase_s = cfg.seconds /. if cfg.trace then 2. else float_of_int (1 + List.length rungs) in
      let rung k ~phase =
        let until = now () +. phase_s in
        let res = drive r d u ~seed ~phase ~rate:(Some (List.assoc k rungs)) ~until in
        (res, rung_rows r ~name:phase ~until res)
      in
      if not cfg.trace then begin
        let start = now () in
        let until = start +. phase_s in
        let samples, _ = drive r d u ~seed ~phase:"capacity" ~rate:None ~until in
        (* completions per second in each quarter of the phase; the
           median quarter, so a passing stall of the host does not
           set the capacity *)
        let quarter = phase_s /. 4. in
        let capacity =
          median
            (List.init 4 (fun q ->
                 let lo = start +. (float_of_int q *. quarter) in
                 float_of_int
                   (List.length
                      (List.filter (fun s -> s.done_ >= lo && s.done_ < lo +. quarter) samples))
                 /. quarter))
        in
        let rows = List.map (fun (k, _) -> (k, rung k ~phase:k)) rungs in
        let _, (lat_mid, late_mid, _) = List.assoc "mid" rows in
        latency_rows r ~ops_per_s:capacity ~tail:0.9 lat_mid;
        metric r ~kind:Layer "gen.late_frac" "frac" (late_frac late_mid);
        metric r "max_rate_rps" "1/s"
          (List.fold_left
             (fun acc (k, (_, (_, _, p99))) ->
               if p99 <= p99_limit_ms then Float.max acc (List.assoc k rungs) else acc)
             0. rows)
      end
      else begin
        let (plain, _), _ = rung "mid" ~phase:"mid" in
        let h0, m0 = cache_counts d in
        let (traced, _), (_, late, _) = rung "mid" ~phase:"mid-traced" in
        let h1, m1 = cache_counts d in
        Spans.traced (fun () -> traced_layers r d traced ~secs:phase_s);
        let mean l =
          List.fold_left (fun a s -> a +. (s.done_ -. s.sent)) 0. l
          /. float_of_int (max 1 (List.length l))
        in
        metric r ~kind:Layer "trace_overhead_frac" "frac" ((mean traced /. mean plain) -. 1.);
        metric r ~kind:Layer "gen.late_frac" "frac" (late_frac late);
        (* a mutant replaces its file's entry, so the next request for
           the original misses too: about 0.8^2 of requests hit *)
        metric r ~kind:Layer "analysis.program_cache_hit_ratio" "frac"
          ((h1 -. h0) /. Float.max 1. (h1 -. h0 +. m1 -. m0));
        Layers.share_rows r;
        let side =
          Layers.side_rows r
            (Array.to_list u
            |> List.filteri (fun k _ -> k mod 2 = 0)
            |> List.map (fun ((o : item), _) -> (o.file, o.source)))
        in
        Layers.print_self_times r ~side
      end;
      metric r ~kind:E2e "peak_rss_mb" "MB" (peak_rss_mb ~pid:(string_of_int d.pid) ()))
