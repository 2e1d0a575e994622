(** Storage invalidation analysis: at each program point, which locals'
    memory must no longer be accessed — either their storage ended
    ([StorageDead]) or their value was dropped ([Drop]).

    This is the direct analogue of the paper's use-after-free detector
    foundation: "maintain the state of each variable (alive or dead) by
    monitoring when MIR calls StorageLive or StorageDead on it". *)

open Ir
module IntSet = Dataflow.IntSet
module Flow = Dataflow.IntSetFlow

(** May-analysis transfer: a local becomes invalid at [StorageDead] or
    [Drop] of the whole local, valid again at [StorageLive] or a whole
    re-assignment. *)
let transfer_stmt (state : IntSet.t) (s : Mir.stmt) : IntSet.t =
  match s.Mir.kind with
  | Mir.StorageDead l -> IntSet.add l state
  | Mir.Drop p when Mir.place_is_local p -> IntSet.add p.Mir.base state
  | Mir.StorageLive l -> IntSet.remove l state
  | Mir.Assign (p, _) when Mir.place_is_local p -> IntSet.remove p.Mir.base state
  | _ -> state

let transfer_term (state : IntSet.t) (t : Mir.terminator) : IntSet.t =
  match t with
  | Mir.Call (c, _) when Mir.place_is_local c.Mir.dest ->
      IntSet.remove c.Mir.dest.Mir.base state
  | _ -> state

(* Word-level images of the transfers, for the specialized kernel
   (must mirror [transfer_stmt]/[transfer_term] exactly; the kernel
   differential tests check them against each other). *)
let word_stmt (state : int) (s : Mir.stmt) : int =
  match s.Mir.kind with
  | Mir.StorageDead l -> state lor (1 lsl l)
  | Mir.Drop p when Mir.place_is_local p -> state lor (1 lsl p.Mir.base)
  | Mir.StorageLive l -> state land lnot (1 lsl l)
  | Mir.Assign (p, _) when Mir.place_is_local p ->
      state land lnot (1 lsl p.Mir.base)
  | _ -> state

let word_term (state : int) (t : Mir.terminator) : int =
  match t with
  | Mir.Call (c, _) when Mir.place_is_local c.Mir.dest ->
      state land lnot (1 lsl c.Mir.dest.Mir.base)
  | _ -> state

(* Invocation counter (instrumentation for the cache tests/benches). *)
let runs_counter = Atomic.make 0
let runs () = Atomic.get runs_counter

let m_runs =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Per-body analysis invocations (cache misses recompute these)."
    "rustudy_analysis_runs_total"

let analyze (body : Mir.body) : Flow.result =
  Atomic.incr runs_counter;
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_runs ~labels:[ "liveness" ];
  if Array.length body.Mir.locals <= Support.Bitset.word_bits then begin
    (* every local id fits one machine word: run the zero-allocation
       kernel and lift the per-block words back into bitsets *)
    Dataflow.Word.to_flow
      (Dataflow.Word.run body ~init:0 ~transfer_stmt:word_stmt
         ~transfer_term:word_term)
  end
  else Flow.run body ~init:IntSet.empty ~transfer_stmt ~transfer_term

(** Iterate all statements/terminators with the invalid-set before each. *)
let iter (body : Mir.body) (r : Flow.result)
    ~(f : block:int -> IntSet.t -> [ `Stmt of Mir.stmt | `Term of Mir.terminator ] -> unit) =
  Flow.iter_with_state body r ~transfer_stmt ~f
