(** Wall-clock deadlines: cooperative cancellation for the fixpoint
    analyses and the corpus drivers (the time-domain analogue of
    {!Fuel}).

    A driver wraps per-entry work in {!Budget.run}, the only caller of
    {!with_deadline_ms} outside tests; each
    fixpoint mints a {!token} and polls {!expired} once per iteration,
    stopping early with an incomplete result when the monotonic clock
    runs past the deadline. With no ambient deadline installed every
    poll is a cheap [false]. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. Immune to wall-clock adjustments. *)

(** {1 Process-wide default budget} *)

val get_default_ms : unit -> int
(** The default per-entry budget in milliseconds; [0] = disabled. *)

val set_default_ms : int -> unit
(** Set the process-wide default (the CLI [--deadline-ms] override).
    Values [<= 0] disable it. Atomic: visible to all domains.
    {!Budget.default_deadline_ms} reads it. *)

(** {1 Ambient per-domain deadline} *)

val current : unit -> int64 option
(** The current domain's absolute deadline (monotonic ns), if any. *)

val reset : unit -> unit
(** Clear the current domain's ambient deadline unconditionally.
    Long-lived processes (the analysis server) call this at the top of
    every request so a deadline leaked by a previous request — e.g.
    through a worker killed mid-request, bypassing the scoped restore
    of {!with_deadline_ms} — can never bleed into the next one.
    Tokens already minted keep their captured deadline; only future
    {!token} calls see the cleared state. *)

val with_deadline_ms : int -> (unit -> 'a) -> 'a
(** [with_deadline_ms ms f] runs [f] with the current domain's
    deadline set to [now + ms] milliseconds, restoring the previous
    deadline afterwards. Nesting keeps the {e tighter} deadline: an
    inner call can shorten the budget but never extend an outer one.
    [ms <= 0] installs an already-expired deadline (tests use this to
    force deterministic timeouts). *)

(** {1 Per-run tokens} *)

type token
(** One fixpoint run's view of the ambient deadline, captured at
    {!token}-creation time. Polling amortizes clock reads (one sample
    per 64 {!expired} calls), and expiry is sticky. *)

val token : unit -> token
(** Capture the current domain's ambient deadline (set by
    {!with_deadline_ms}); the token never expires if none is set. *)

val expired : token -> bool
(** Poll the deadline. [true] once the monotonic clock has passed it;
    sticky thereafter. The first poll always samples the clock, so an
    already-expired deadline is seen immediately. *)

val hit : token -> bool
(** Whether {!expired} ever returned [true], without sampling the
    clock — for result plumbing after a loop exits. *)

val active : token -> bool
(** Whether the token carries a deadline at all. *)
