(** Summary-based compositional interprocedural analysis.

    Per-function summaries are computed bottom-up over the
    SCC-condensed function-call graph: callees before callers, fixpoint
    iteration only inside non-trivial SCCs, call sites instantiating
    finished callee summaries instead of re-entering bodies. Finished
    summaries are stored content-addressed in {!Cache} (keyed by a
    Merkle digest of the function body, its transitive callees and the
    client config) so edits invalidate function-granularly.

    The double-lock and use-after-free detectors plug in as
    {!client}s. Their findings over the corpus and its fault mutants
    are pinned, in emission order, by [test/golden_interproc.txt]. *)

open Ir

(** {1 SCC condensation} *)

module Scc : sig
  type t = {
    count : int;
    comp_of : int array;  (** node -> component id *)
    members : int array array;
        (** component id -> member nodes, ascending *)
    order : int array;
        (** component ids in reverse-topological (callee-first) order;
            deterministic for a given graph *)
    has_cycle : bool array;
        (** component id -> more than one member, or a self-loop *)
  }

  val condense : n:int -> succs:int array array -> t
  (** Iterative Tarjan over nodes [0..n-1] (safe on 10k-deep chains). *)
end

val condensation : Cache.t -> Scc.t
(** The program's function-call dependency graph condensed; nodes are
    [Mir.body_ix] indices. Memoised in the context. *)

(** {1 Clients} *)

type 'a client = {
  name : string;  (** metrics label; also part of the content address *)
  params : string;
      (** client configuration fingerprint mixed into the content
          address *)
  skey : 'a array Cache.Ext.key;
      (** typed slot for the content-addressed store *)
  equal : 'a -> 'a -> bool;  (** SCC fixpoint convergence test *)
  compute : lookup:(string -> 'a option) -> Mir.body -> 'a;
      (** recompute one function's summary; [lookup] serves finished
          callee summaries ([None] means "not yet computed", which the
          client must read as the bottom summary) *)
}

val compute :
  ?force_store:bool -> Cache.t -> 'a client -> (string, 'a) Hashtbl.t
(** Bottom-up summaries for every function of the program, keyed by
    [fn_id], one component at a time in reverse-topological order.
    [?force_store] engages the content-addressed store regardless of
    {!store_min_bodies}. Deadline-aware: on expiry the remaining
    components are skipped (absent summaries under-approximate) and a
    W0402 is attached to the context. While tracing is on, each call
    records one [summary.compute] span. *)

val body_digest : Mir.body -> string
(** Content digest of one body (text, types, CFG and spans). *)

val store_min_bodies : unit -> int
(** Programs with fewer bodies skip the content-addressed store — for
    the many tiny corpus programs the digesting would cost more than
    the summaries (default 24). *)

val set_store_min_bodies : int -> unit

val note_instantiated : ?n:int -> string -> unit
(** Record [n] callee-summary instantiations for
    [rustudy_summary_instantiated_total{analysis}]; detectors call this
    where they substitute summaries at call sites. No-op while metrics
    are disabled. *)

(** {1 Built-in client: parameter escape/return effects} *)

type escape = {
  esc_returned : Dataflow.IntSet.t;
      (** parameter indices that may flow into the return value *)
  esc_escaped : Dataflow.IntSet.t;
      (** parameter indices that may outlive the call: stored into a
          static, handed to an extern (FFI) callee, or passed to a
          callee that lets them escape *)
}

val escape_equal : escape -> escape -> bool

val escape_summaries : Cache.t -> (string, escape) Hashtbl.t
(** Escape/return summaries for every function, computed through the
    engine and memoised in the context. *)
