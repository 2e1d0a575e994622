(** Corpus supervisor: deadline-governed, self-healing driver over the
    {!Domain_pool} — per-entry wall-clock budgets ({!Budget.run}),
    seeded exponential-backoff retries ({!Retry}), quarantine after the
    attempt budget (circuit breaker), a whole-run deadline that skips
    the remainder instead of over-running, and stuck marks for
    attempts that complete far past their budget.

    Retries are round-based (round [k] runs attempt [k] of everything
    still pending), so verdicts are deterministic whenever the
    underlying failures are. Results are positional, in input order. *)

type config = {
  domains : int option;
      (** worker-pool size (default {!Domain_pool.default_domains}) *)
  per_entry_deadline_ms : int option;
      (** wall-clock budget installed around each attempt
          ({!Budget.run}); [None] falls back to
          {!Budget.default_deadline_ms} *)
  run_deadline_ms : int option;
      (** whole-run budget: items not started before it expires get a
          [Skipped] verdict, never silently dropped *)
  retry : Retry.policy;
  sleep : float -> unit;
      (** milliseconds; injectable so tests run without real delays *)
}

val default_config : config
(** Pool-sized domains, no deadlines, {!Retry.default} (3 attempts),
    [Unix.sleepf]. *)

type failure = {
  f_msg : string;  (** printable cause *)
  f_timeout : bool;  (** the attempt exceeded its wall-clock deadline *)
}

type 'b verdict =
  | Done of 'b * int  (** value and the attempt (from 1) that produced it *)
  | Quarantined of { attempts : int; errors : string list }
      (** every attempt failed; errors oldest-first *)
  | Skipped of string  (** never attempted (run deadline) *)

type stats = {
  total : int;
  completed : int;  (** [Done] verdicts *)
  retried : int;  (** retry attempts performed (2nd and later) *)
  timeouts : int;  (** timed-out attempts observed *)
  quarantined : int;
  skipped : int;
  stuck_marks : int;
      (** entries with an attempt whose wall time exceeded twice the
          per-entry budget plus 1 s (30 s with no budget), counted
          when the attempt completes (timing-dependent; diagnostics
          only) *)
}

val run :
  ?config:config ->
  ?on_done:(key:string -> 'b verdict -> unit) ->
  f:(attempt:int -> key:string -> 'a -> ('b, failure) result) ->
  (string * 'a) list ->
  (string * 'b verdict) list * stats
(** [run ~f items] drives every [(key, item)] pair to a final verdict.
    [f] runs under the configured per-entry deadline; an exception
    escaping [f] is captured as a non-timeout {!failure}. [on_done]
    fires exactly once per item, from the completing worker's domain,
    the moment its verdict is final (the checkpoint journal hooks in
    here) — it must be domain-safe. An exception from [on_done] is
    re-raised once the round's domains have joined; nothing else
    escapes. *)
