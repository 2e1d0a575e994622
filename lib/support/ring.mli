(** The bounded event ring behind every in-memory event log: trace
    shards, flight-recorder shards and the server's access log.

    A ring holds the most recent [capacity] values. Pushing into a
    full ring overwrites the oldest value and counts it, so a reader
    always sees the latest window together with the exact number of
    values lost to wrap.

    A ring is unsynchronised: {!push} takes no lock. Its owner either
    confines it to one domain ({!Shards}) or guards it with its own
    mutex. *)

type 'a t

val create : int -> 'a t
(** An empty ring of the given capacity (at least 16). *)

val push : 'a t -> 'a -> unit
(** Append a value, overwriting (and counting) the oldest one when
    the ring is full. *)

val to_list : 'a t -> 'a list
(** The buffered values, oldest first. *)

val length : 'a t -> int
(** Values currently buffered. *)

val dropped : 'a t -> int
(** Values overwritten since the ring was created or last cleared. *)

val clear : 'a t -> unit
(** Drop every buffered value and zero the drop count; the capacity
    is kept. *)

val reset_capacity : 'a t -> int -> unit
(** {!clear}, then give the ring a new capacity (at least 16). *)

(** Per-domain shards: each domain that asks gets its own value,
    created on first use and registered so readers can visit every
    shard, including those of domains that have since exited. The
    owning domain writes its shard without locking; readers on other
    domains may see it one update stale. *)
module Shards : sig
  type 'a t

  val create : (int -> 'a) -> 'a t
  (** [create make] builds a registry whose shards are [make i], [i]
      numbering the shards 0, 1, ... in creation order. *)

  val mine : 'a t -> 'a
  (** The calling domain's shard, created on first call. *)

  val all : 'a t -> 'a list
  (** Every shard created so far, in creation order. *)
end
