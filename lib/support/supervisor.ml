(** Corpus supervisor: deadline-governed, self-healing driver over the
    [Domain_pool] worker pool.

    Sits between the corpus sweep and raw [Domain_pool.map]: per-item
    work runs under the per-entry wall-clock budget ([Budget.run]),
    failed and timed-out items are retried with seeded exponential
    backoff ([Retry]), items that exhaust their attempt budget are
    quarantined (circuit breaker) instead of poisoning the run, a
    whole-run deadline skips the remainder rather than over-running,
    and an attempt that completes far past any cooperative deadline is
    counted as a stuck mark.

    Retries are round-based: round [k] runs attempt [k] of every item
    still pending, so the result list and the set of quarantined items
    are deterministic whenever the underlying failures are (the only
    timing-dependent outputs are timeout-driven verdicts and the stuck
    marks). Results come back positionally, in input order. *)

type config = {
  domains : int option;
      (** worker-pool size (default [Domain_pool.default_domains]) *)
  per_entry_deadline_ms : int option;
      (** wall-clock budget installed around each attempt; [None]
          falls back to [Budget.default_deadline_ms] *)
  run_deadline_ms : int option;
      (** whole-run budget: items not started before it expires are
          [Skipped], never silently dropped *)
  retry : Retry.policy;
  sleep : float -> unit;
      (** milliseconds; injectable so tests run without real delays *)
}

let default_sleep ms = if ms > 0. then Unix.sleepf (ms /. 1000.)

let default_config =
  {
    domains = None;
    per_entry_deadline_ms = None;
    run_deadline_ms = None;
    retry = Retry.default;
    sleep = default_sleep;
  }

(** One attempt's failure: printable cause plus whether it was a
    deadline timeout (timeouts purge cached partial results before the
    retry; see [Classify]). *)
type failure = { f_msg : string; f_timeout : bool }

type 'b verdict =
  | Done of 'b * int  (** value and the attempt (from 1) that produced it *)
  | Quarantined of { attempts : int; errors : string list }
      (** every attempt failed; errors oldest-first *)
  | Skipped of string  (** never attempted (run deadline) *)

(* Per-run stats are also published to the process-wide metrics
   registry (bulk, once per [run]) so `--metrics-out` captures them
   without the caller re-plumbing the stats record. *)
let m_entries =
  Metrics.counter ~labels:[ "verdict" ]
    ~help:"Supervised entries by final verdict (done|quarantined|skipped)."
    "rustudy_supervisor_entries_total"

let m_retries =
  Metrics.counter ~help:"Retry attempts performed (2nd and later)."
    "rustudy_supervisor_retries_total"

let m_timeouts =
  Metrics.counter ~help:"Timed-out attempts observed."
    "rustudy_supervisor_timeouts_total"

let m_stuck =
  Metrics.counter
    ~help:"Attempts that completed past the stuck threshold."
    "rustudy_supervisor_stuck_marks_total"

type stats = {
  total : int;
  completed : int;  (** [Done] verdicts *)
  retried : int;  (** retry attempts performed (2nd and later) *)
  timeouts : int;  (** timed-out attempts observed *)
  quarantined : int;
  skipped : int;
  stuck_marks : int;
      (** entries with an attempt that completed past the stuck
          threshold (timing-dependent; diagnostics only) *)
}

let run (type a b) ?(config = default_config)
    ?(on_done : (key:string -> b verdict -> unit) option)
    ~(f : attempt:int -> key:string -> a -> (b, failure) result)
    (items : (string * a) list) : (string * b verdict) list * stats =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let final : b verdict option array = Array.make n None in
  let errors : string list array = Array.make n [] (* newest first *) in
  (* an entry runs on one domain per round and rounds are joined, so
     [final], [errors] and [stuck] need no synchronisation; [stuck]
     marks an entry at most once *)
  let stuck = Array.make n false in
  let retried = Atomic.make 0 and timeouts = Atomic.make 0 in
  let max_attempts = max 1 config.retry.Retry.max_attempts in
  let run_limit =
    Option.map
      (fun ms ->
        Int64.add (Deadline.now_ns ())
          (Int64.mul (Int64.of_int (max ms 0)) 1_000_000L))
      config.run_deadline_ms
  in
  let run_expired () =
    match run_limit with
    | None -> false
    | Some l -> Int64.compare (Deadline.now_ns ()) l >= 0
  in
  let deadline_ms =
    match config.per_entry_deadline_ms with
    | Some _ as d -> d
    | None -> Budget.default_deadline_ms ()
  in
  (* an attempt is "stuck" once it has run well past the cooperative
     per-entry budget (double it, plus a second of grace), or 30 s when
     no budget is installed at all *)
  let stuck_ns =
    let ms =
      match deadline_ms with Some b -> (2 * b) + 1_000 | None -> 30_000
    in
    Int64.mul (Int64.of_int ms) 1_000_000L
  in
  let finalize i v =
    final.(i) <- Some v;
    match on_done with None -> () | Some cb -> cb ~key:(fst arr.(i)) v
  in
  let attempt_one attempt i =
    let key, item = arr.(i) in
    if run_expired () then
      finalize i (Skipped "run deadline exceeded before this entry ran")
    else begin
      if attempt > 1 then begin
        Atomic.incr retried;
        config.sleep (Retry.delay_ms config.retry ~key ~attempt)
      end;
      let t0 = Deadline.now_ns () in
      let res =
        match
          Trace.with_span ~cat:"supervisor"
            ~args:[ ("key", key); ("attempt", string_of_int attempt) ]
            "supervisor.attempt"
            (fun () ->
              fst (Budget.run ?deadline_ms (fun () -> f ~attempt ~key item)))
        with
        | r -> r
        | exception e ->
            Error { f_msg = Printexc.to_string e; f_timeout = false }
      in
      if Int64.compare (Int64.sub (Deadline.now_ns ()) t0) stuck_ns > 0 then
        stuck.(i) <- true;
      match res with
      | Ok v -> finalize i (Done (v, attempt))
      | Error fl ->
          if fl.f_timeout then Atomic.incr timeouts;
          errors.(i) <- fl.f_msg :: errors.(i);
          if attempt >= max_attempts then
            finalize i
              (Quarantined { attempts = attempt; errors = List.rev errors.(i) })
          (* otherwise: left pending for the next round *)
    end
  in
  let rec rounds attempt =
    match List.filter (fun i -> final.(i) = None) (List.init n Fun.id) with
    | [] -> ()
    | idxs ->
        (* [max_attempts] bounds the rounds: every still-pending item
           either finalizes this round or has attempts left *)
        assert (attempt <= max_attempts);
        (* [attempt_one] captures [f]'s exceptions, so one escaping the
           pool came from [on_done]; [map] re-raises it once every
           domain has joined *)
        ignore
          (Domain_pool.map ?domains:config.domains ~f:(attempt_one attempt)
             idxs);
        rounds (attempt + 1)
  in
  rounds 1;
  (* every index finalizes *)
  let results =
    List.mapi (fun i (key, _) -> (key, Option.get final.(i))) items
  in
  let count p = List.length (List.filter (fun (_, v) -> p v) results) in
  let stats =
    {
      total = n;
      completed = count (function Done _ -> true | _ -> false);
      retried = Atomic.get retried;
      timeouts = Atomic.get timeouts;
      quarantined = count (function Quarantined _ -> true | _ -> false);
      skipped = count (function Skipped _ -> true | _ -> false);
      stuck_marks = List.length (List.filter Fun.id (Array.to_list stuck));
    }
  in
  if Metrics.enabled () then begin
    let c lbl v =
      if v > 0 then Metrics.incr m_entries ~labels:[ lbl ] ~by:(float_of_int v)
    in
    c "done" stats.completed;
    c "quarantined" stats.quarantined;
    c "skipped" stats.skipped;
    Metrics.incr m_retries ~by:(float_of_int stats.retried);
    Metrics.incr m_timeouts ~by:(float_of_int stats.timeouts);
    Metrics.incr m_stuck ~by:(float_of_int stats.stuck_marks)
  end;
  (results, stats)
