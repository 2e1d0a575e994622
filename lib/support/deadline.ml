(** Wall-clock deadlines: cooperative cancellation for the fixpoint
    analyses and the corpus drivers.

    Mirrors the [Fuel] design: the budget is ambient process/domain
    state rather than a parameter threaded through every signature. A
    driver wraps per-entry work in [Budget.run] (which installs the
    scope through {!with_deadline_ms}); each fixpoint then mints a
    {!token} and polls {!expired} once per iteration, stopping early
    and reporting an incomplete result when the wall clock runs past
    the deadline — the time-domain analogue of an exhausted fuel
    budget.

    Time comes from the monotonic clock ([Monotonic_clock.now],
    nanoseconds), so deadlines are immune to wall-clock adjustments.
    The ambient deadline is per-domain ([Domain.DLS]): workers on
    different domains carry independent budgets, and nesting keeps
    the tighter of the two deadlines. *)

let now_ns () : int64 = Monotonic_clock.now ()

(* ---------------- process-wide default budget ----------------------- *)

(* default per-entry budget in milliseconds; 0 = disabled. An [Atomic]
   so corpus workers on other domains observe a CLI override without
   synchronisation (same rationale as [Fuel.budget]). *)
let default_ms = Atomic.make 0

let get_default_ms () = Atomic.get default_ms
let set_default_ms n = Atomic.set default_ms (max n 0)

(* ---------------- ambient per-domain deadline ----------------------- *)

(* absolute deadline (monotonic ns) of the current domain, if any *)
let key : int64 option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

(* Long-lived processes (the analysis server) call this between
   requests: whatever ambient deadline a previous request installed —
   even through a code path that bypassed the [Fun.protect] restore in
   [with_deadline_ms], e.g. a worker killed mid-request — is cleared,
   so one request's expiry can never bleed into the next. *)
let reset () = Domain.DLS.set key None

let with_deadline_ms ms f =
  let abs =
    Int64.add (now_ns ()) (Int64.mul (Int64.of_int (max ms 0)) 1_000_000L)
  in
  let outer = Domain.DLS.get key in
  let eff =
    (* nesting keeps the tighter deadline: an inner, later deadline
       cannot extend an outer budget *)
    match outer with
    | Some o when Int64.compare o abs <= 0 -> outer
    | _ -> Some abs
  in
  Domain.DLS.set key eff;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key outer) f

(* ---------------- per-run tokens ------------------------------------ *)

type token = { limit : int64 option; mutable ticks : int; mutable hit : bool }

let token () = { limit = Domain.DLS.get key; ticks = 0; hit = false }

(* sample the clock once per 64 polls: a fixpoint iteration is tens of
   nanoseconds, a clock read is comparable — amortize it away *)
let check_mask = 63

let expired t =
  match t.limit with
  | None -> false
  | Some l ->
      t.hit
      ||
      let k = t.ticks in
      t.ticks <- k + 1;
      (* k = 0 checks immediately, so a 0 ms budget expires on the
         very first poll *)
      if k land check_mask = 0 && Int64.compare (now_ns ()) l >= 0 then
        t.hit <- true;
      t.hit

let hit t = t.hit
let active t = t.limit <> None
