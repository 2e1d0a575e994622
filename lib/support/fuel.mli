(** Analysis fuel: a process-wide iteration budget for the fixpoint
    analyses (points-to, dataflow, call-graph reachability).

    Every fixpoint loop consumes one unit of fuel per iteration and
    stops when the budget is exhausted, returning whatever it has with
    an [incomplete] marker instead of diverging on adversarial inputs.
    The budget is generous: no well-formed corpus program comes within
    two orders of magnitude of it, so exhaustion is itself a
    diagnostic signal. *)

val default_budget : int

val get : unit -> int
(** The current process-wide budget. *)

val set : int -> unit
(** Set the process-wide budget (atomic: visible to all domains).
    Values [<= 0] restore the default. *)

val with_budget : int -> (unit -> 'a) -> 'a
(** Run [f] with the budget temporarily set to [n], then restore the
    previous value. The restore is a compare-and-set, so a concurrent
    {!set} from another domain during [f] is left in place rather than
    clobbered. Remaining caveat (inherent ABA): if another domain sets
    the budget to exactly the value this call installed, the restore
    cannot tell the two writes apart and still puts the old value
    back. Intended for test code; concurrent production overrides
    should use {!set} directly. *)

(** {1 Per-domain override}

    {!with_budget} mutates the process-wide atomic, so two concurrent
    requests on different domains would clobber each other. A unit of
    work (a served request, an oracle target) scopes its budget to its
    domain instead, through {!Budget.run}, the only caller of
    {!with_domain_budget} outside tests: the override shadows the
    global budget on the calling domain only. *)

val with_domain_budget : int -> (unit -> 'a) -> 'a
(** Run [f] with this domain's fuel budget set to [n] ([<= 0] means
    {!default_budget}), restoring the previous override afterwards.
    Other domains are unaffected. *)

val domain_budget : unit -> int option
(** The calling domain's override, if one is installed. *)

val reset_domain : unit -> unit
(** Clear the calling domain's override unconditionally — the
    {!Deadline.reset} analogue, called by the server between requests
    so a leaked override can never bleed into the next request. *)

val effective : unit -> int
(** The budget a fresh {!counter} on this domain starts from: the
    domain override when present, the process-wide budget otherwise. *)

(** {1 Per-run counters} *)

type counter
(** A mutable fuel counter for one analysis run, initialized from the
    effective budget (or an explicit [n]). *)

val counter : ?n:int -> unit -> counter

val burn : counter -> bool
(** Consume one unit; [false] when the budget is exhausted. *)

val exhausted : counter -> bool
