(** Seeded exponential backoff (deterministic via splitmix64, like
    {!Fault}): the supervisor's retry schedule is reproducible from
    the policy seed and the entry key alone. *)

type policy = {
  max_attempts : int;  (** total attempts including the first *)
  base_delay_ms : float;  (** delay before attempt 2 *)
  multiplier : float;  (** exponential growth per further attempt *)
  jitter : float;  (** +/- fraction of the nominal delay, in [0, 1] *)
  seed : int;  (** splitmix64 seed for the jitter *)
}

val default : policy
(** 3 attempts, 50 ms base, x2 growth, 25% jitter, seed [0x5EED]. *)

val delay_ms : policy -> key:string -> attempt:int -> float
(** Backoff in milliseconds before [attempt] (numbered from 1; the
    first retry is attempt 2, so [attempt <= 1] is [0.]).
    Deterministic in [(policy seed, key, attempt)]. *)

val run :
  ?sleep:(float -> unit) ->
  policy ->
  key:string ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e list) result
(** Call [f ~attempt] until [Ok] or the attempt budget is spent,
    sleeping {!delay_ms} (milliseconds) between attempts. All
    attempts' errors come back oldest-first on exhaustion. [sleep]
    is injectable for tests (default: [Unix.sleepf]). *)
