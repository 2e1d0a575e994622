(** Seeded exponential backoff for the corpus supervisor.

    Delays are deterministic in [(policy seed, key, attempt)]: the
    jitter comes from the same splitmix64 generator as the fault
    harness ([Fault.rng]), keyed by the entry id, so two runs of the
    same corpus schedule identical backoff — reproducibility first,
    thundering-herd avoidance second. *)

type policy = {
  max_attempts : int;  (** total attempts including the first *)
  base_delay_ms : float;  (** delay before attempt 2 *)
  multiplier : float;  (** exponential growth per further attempt *)
  jitter : float;  (** +/- fraction of the nominal delay, in [0, 1] *)
  seed : int;  (** splitmix64 seed for the jitter *)
}

let default =
  {
    max_attempts = 3;
    base_delay_ms = 50.;
    multiplier = 2.;
    jitter = 0.25;
    seed = 0x5EED;
  }

(** Backoff before [attempt] (numbered from 1; the first retry is
    attempt 2). Deterministic in [(p.seed, key, attempt)]. *)
let delay_ms (p : policy) ~key ~attempt : float =
  if attempt <= 1 then 0.
  else begin
    let nominal =
      p.base_delay_ms *. (p.multiplier ** float_of_int (attempt - 2))
    in
    let r = Fault.rng (p.seed lxor Hashtbl.hash key lxor (attempt * 0x9E37)) in
    (* uniform in [-1, 1), quantized: plenty for backoff spreading *)
    let u = (2. *. (float_of_int (Fault.next_int r 10_000) /. 10_000.)) -. 1. in
    Float.max 0. (nominal *. (1. +. (p.jitter *. u)))
  end

(** [run p ~key f] calls [f ~attempt] (attempts numbered from 1) until
    it returns [Ok] or the policy's attempt budget is spent, sleeping
    the deterministic backoff between attempts. Returns the errors of
    every attempt, oldest first, when all fail. [sleep] (seconds) is
    injectable so tests run without wall-clock delays. *)
let run ?(sleep = fun ms -> if ms > 0. then Unix.sleepf (ms /. 1000.))
    (p : policy) ~key (f : attempt:int -> ('a, 'e) result) :
    ('a, 'e list) result =
  let max_attempts = max 1 p.max_attempts in
  let rec go attempt rev_errors =
    match f ~attempt with
    | Ok v -> Ok v
    | Error e ->
        let rev_errors = e :: rev_errors in
        if attempt >= max_attempts then Error (List.rev rev_errors)
        else begin
          sleep (delay_ms p ~key ~attempt:(attempt + 1));
          go (attempt + 1) rev_errors
        end
  in
  go 1 []
