(** Budgeted attempts: the one place a unit of work (a corpus entry, a
    served request, an oracle target or schedule) gets its wall-clock
    deadline ({!Deadline}) and fuel budget ({!Fuel}). *)

val run : ?deadline_ms:int -> ?fuel:int -> (unit -> 'a) -> 'a * bool
(** [run ?deadline_ms ?fuel f] runs [f] with this domain's deadline
    set to [now + deadline_ms] (nesting keeps the tighter deadline;
    [<= 0] is already expired) and its fuel override set to [fuel]
    ([<= 0] means {!Fuel.default_budget}), and returns [(f (),
    expired)]. [expired] polls a token minted inside the scope after
    [f] returns: [f] ran past the ambient deadline. The previous
    deadline and fuel override are restored on exit, also when [f]
    raises. An omitted budget installs nothing, so [run f] leaves the
    domain state as it found it. *)

val default_deadline_ms : unit -> int option
(** The process default per-entry deadline ([--deadline-ms]), [None]
    when it is unset or [0]. *)
