(** Measurement plumbing shared by the workloads: the clock, sample
    vectors and quantiles, the per-run report (metrics, correctness
    verdicts, operation counts), benchmark-owned spans with self-time
    accounting, and process memory/GC probes. Nothing here reaches
    into the library: the spans wrap public calls from outside. *)

let now () = Int64.to_float (Support.Deadline.now_ns ()) *. 1e-9

(** One run's settings. [seconds] is the measured time; a traced run
    alternates untraced operations (the overhead baseline) with traced
    ones. [smoke] shrinks the inputs. *)
type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  cli : string;  (** the rustudy executable, for the served workload *)
  golden : string;  (** test/golden_findings.txt *)
  expected : string;  (** directory of frozen reference outputs *)
  out_dir : string;  (** trace files and scratch sockets go here *)
}

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let sum v =
    let s = ref 0. in
    for i = 0 to v.n - 1 do
      s := !s +. v.a.(i)
    done;
    !s

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort compare s;
    s
end

(** Linearly interpolated quantile of a sorted array (the "inclusive"
    method); [0.] for an empty one. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile a 0.5

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Run report                                                          *)
(* ------------------------------------------------------------------ *)

(** [E2e] metrics are what a user sees (printed with [--trace 0]);
    [Layer] metrics attribute them to layers ([--trace 1]); [Info]
    rows are printed and recorded but belong to neither list. *)
type kind = E2e | Layer | Info

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  kind : kind;
}

type report = {
  workload : string;
  mutable metrics : metric list;  (** newest first *)
  mutable checks : (string * bool * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few failure details *)
}

let report workload =
  { workload; metrics = []; checks = []; attempted = 0; failed = 0; failures = [] }

let metric r ?(kind = Info) ?(samples = 1) name unit_ value =
  let value = if Float.is_finite value then value else 0. in
  r.metrics <- { name; value; unit_; samples; kind } :: r.metrics

(** A correctness verdict that is not tied to one operation. *)
let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks

(** Count one attempted operation; a failed one keeps its detail. *)
let op r ok detail =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 5 then r.failures <- detail () :: r.failures
  end

let correct r =
  r.attempted > 0 && r.failed = 0 && List.for_all (fun (_, ok, _) -> ok) r.checks

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(** Benchmark-owned spans. Off by default; inside {!traced}, each
    [span] call records its wall time and self time (wall minus the
    wall of its child spans) into a per-name table, and the first
    [keep] spans are kept for the Chrome trace file. Single-threaded by
    design: the in-process workloads are closed loops on one thread. *)
module Spans = struct
  let on = ref false
  let keep = 20_000
  let origin = now ()

  type agg = { mutable count : int; mutable wall : float; mutable self : float }

  let table : (string, agg) Hashtbl.t = Hashtbl.create 64
  let events : (string * int * float * float) list ref = ref []
  let n_events = ref 0

  (* child wall accumulated so far by each open span *)
  let stack : float ref list ref = ref []

  (** Run [f] with recording on. *)
  let traced f =
    on := true;
    Fun.protect ~finally:(fun () -> on := false) f

  let record ?(tid = 1) name t0 dur self =
    let a =
      match Hashtbl.find_opt table name with
      | Some a -> a
      | None ->
          let a = { count = 0; wall = 0.; self = 0. } in
          Hashtbl.replace table name a;
          a
    in
    a.count <- a.count + 1;
    a.wall <- a.wall +. dur;
    a.self <- a.self +. self;
    if !n_events < keep then begin
      incr n_events;
      events := (name, tid, t0, dur) :: !events
    end

  let span name f =
    if not !on then f ()
    else begin
      let children = ref 0. in
      stack := children :: !stack;
      let t0 = now () in
      let finish () =
        let dur = now () -. t0 in
        (stack := match !stack with _ :: tl -> tl | [] -> []);
        (match !stack with p :: _ -> p := !p +. dur | [] -> ());
        record name t0 dur (dur -. !children)
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (** Record an already-measured span tree on thread [tid]: a root
      [name] over [t0, t0 + dur] with children given as (name, start,
      duration), which must lie inside it. Used where the layers ran in
      another process and only their durations came back. *)
  let record_tree ~tid name ~t0 ~dur children =
    if !on then begin
      let covered =
        List.fold_left
          (fun acc (c, s, d) ->
            record ~tid c s d d;
            acc +. d)
          0. children
      in
      record ~tid name t0 dur (dur -. covered)
    end

  let self name =
    match Hashtbl.find_opt table name with Some a -> a.self | None -> 0.

  let count name =
    match Hashtbl.find_opt table name with Some a -> a.count | None -> 0

  (** Chrome trace-event JSON of the kept spans (timestamps in µs
      from process start). *)
  let chrome () =
    let b = Buffer.create (64 * !n_events) in
    Buffer.add_string b "[";
    List.iteri
      (fun i (name, tid, t0, dur) ->
        if i > 0 then Buffer.add_string b ",\n";
        Printf.bprintf b
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.4f,\"dur\":%.4f}"
          name tid
          ((t0 -. origin) *. 1e6)
          (dur *. 1e6))
      (List.rev !events);
    Buffer.add_string b "]\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Process probes                                                      *)
(* ------------------------------------------------------------------ *)

(** Peak resident set (VmHWM) of a process, in MB; [self] by default. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
                kb /. 1024.)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(** Run [op] back to back until [until]; the call count and wall. *)
let loop ~until op =
  let t0 = now () and n = ref 0 in
  while now () < until do
    op ();
    incr n
  done;
  (!n, now () -. t0)

(** The measured phase of a closed-loop, in-process workload.
    Untraced, [plain] runs back to back for the whole time. Traced,
    calls alternate between [plain] and [traced] (which opens its own
    ["op"] spans), so both see the same process and host state, and
    [trace_overhead_frac] is the median traced call over the median
    untraced one, minus 1. *)
let measured cfg r ~plain ~traced =
  let until = now () +. cfg.seconds in
  if not cfg.trace then ignore (loop ~until plain)
  else begin
    let tp = Vec.create () and tt = Vec.create () and i = ref 0 in
    while now () < until do
      let t0 = now () in
      if !i mod 2 = 0 then begin
        plain ();
        Vec.push tp (now () -. t0)
      end
      else begin
        Spans.traced traced;
        Vec.push tt (now () -. t0)
      end;
      incr i
    done;
    let med v = quantile (Vec.sorted v) 0.5 in
    metric r ~kind:Layer ~samples:(Vec.length tt) "trace_overhead_frac" "frac"
      ((med tt /. med tp) -. 1.)
  end

(** The [q]-quantile of time-ordered samples, robust to a passing
    stall of the host: the samples are cut into up to 10 consecutive
    chunks, each with at least 10 samples beyond [q], and the median
    of the chunks' quantiles is returned. *)
let chunked_quantile lat q =
  let n = Vec.length lat in
  let k = max 1 (min 10 (int_of_float (float_of_int n *. (1. -. q) /. 10.))) in
  median
    (List.init k (fun i ->
         let lo = i * n / k and hi = (i + 1) * n / k in
         let s = Array.sub lat.Vec.a lo (hi - lo) in
         Array.sort compare s;
         quantile s q))

(** The latency rows every workload reports: median and [tail]
    quantile (chunked) of [lat], and operations per second of busy
    time unless the workload measures its throughput another way. *)
let latency_rows r ?ops_per_s ~tail lat =
  let s = Vec.sorted lat and n = Vec.length lat in
  metric r ~kind:E2e ~samples:n "op_ms_p50" "ms" (1e3 *. quantile s 0.5);
  metric r ~kind:E2e ~samples:n "op_ms_tail" "ms" (1e3 *. chunked_quantile lat tail);
  metric r ~kind:Info ~samples:n "op_tail_quantile" "frac" tail;
  metric r ~kind:E2e ~samples:n "ops_per_s" "1/s"
    (match ops_per_s with
    | Some x -> x
    | None -> float_of_int n /. Float.max 1e-9 (Vec.sum lat))

(** Time [f ()] into [v]. *)
let timed v f =
  let t0 = now () in
  let x = f () in
  Vec.push v (now () -. t0);
  x

(** Run [setup] [n] times and return the median wall time with the
    last result; [release] disposes of every earlier one. *)
let setup_median ~n ?(release = ignore) setup =
  let rec go i times last =
    if i = n then (median times, Option.get last)
    else begin
      Option.iter release last;
      let t0 = now () in
      let v = setup () in
      go (i + 1) ((now () -. t0) :: times) (Some v)
    end
  in
  go 0 [] None

(** Minor words and major collections since [g0], for the GC rows. *)
let gc_rows r ~ops (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  metric r ~kind:Layer "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  metric r ~kind:Layer "gc.minor_mwords_per_op" "Mword"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 /. float_of_int (max 1 ops))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)
