(** Generic monotone forward dataflow over MIR bodies.

    The engine numbers the CFG in reverse postorder once per run and
    drives a priority worklist keyed by that numbering: the pending
    block with the smallest RPO index is always processed next, so
    forward problems converge in near-minimal passes (acyclic bodies
    in exactly one). Unreachable blocks are never seeded or
    transferred — their entry/exit states stay [bottom].

    The per-statement transfer function lets clients observe the state
    at every program point by re-running the transfer inside a block
    once entry states have stabilized. *)

open Ir

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val bottom : t
end

(* Cumulative block-transfer counter across all [run]s in the process
   (instrumentation: the kernel tests and benches report convergence
   cost). *)
let transfers_counter = Atomic.make 0
let transfers () = Atomic.get transfers_counter

(* metrics-registry view of the same instrumentation (plus poll/fuel
   attribution), recorded in bulk once per [run] so the inner loop
   stays allocation- and atomic-free *)
let m_transfers =
  Support.Metrics.counter
    ~help:"Total dataflow block transfers across all fixpoint runs."
    "rustudy_dataflow_transfers_total"

let m_runs =
  Support.Metrics.counter
    ~help:"Total dataflow fixpoint runs." "rustudy_dataflow_runs_total"

let m_polls =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Fixpoint loop iterations that polled the wall-clock deadline."
    "rustudy_fixpoint_deadline_polls_total"

let m_fuel =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Fuel units burned by the fixpoint loops."
    "rustudy_fuel_burned_total"

let m_stops =
  Support.Metrics.counter ~labels:[ "analysis"; "cause" ]
    ~help:"Fixpoint runs stopped early, by analysis and cause \
           (fuel|deadline)."
    "rustudy_fixpoint_early_stops_total"

let record_run ~passes ~converged ~deadline_hit =
  if Support.Metrics.enabled () then begin
    let n = float_of_int passes in
    Support.Metrics.incr m_runs;
    Support.Metrics.incr m_transfers ~by:n;
    Support.Metrics.incr m_polls ~labels:[ "dataflow" ] ~by:n;
    Support.Metrics.incr m_fuel ~labels:[ "dataflow" ] ~by:n;
    if not converged then
      Support.Metrics.incr m_stops
        ~labels:[ "dataflow"; (if deadline_hit then "deadline" else "fuel") ]
  end

(** In-range successor ids of every block, as arrays (computed once per
    run; the engine's inner loops never re-walk terminator lists). *)
let successors_array (blocks : Mir.block array) : int array array =
  let n = Array.length blocks in
  Array.init n (fun i ->
      Array.of_list
        (List.filter
           (fun s -> s >= 0 && s < n)
           (Mir.successors blocks.(i).Mir.term)))

(* predecessor arrays from successor arrays: count, then fill *)
let preds_of_succs (succs : int array array) : int array array =
  let n = Array.length succs in
  let cnt = Array.make n 0 in
  Array.iter (Array.iter (fun s -> cnt.(s) <- cnt.(s) + 1)) succs;
  let preds = Array.init n (fun i -> Array.make cnt.(i) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i ss ->
      Array.iter
        (fun s ->
          preds.(s).(fill.(s)) <- i;
          fill.(s) <- fill.(s) + 1)
        ss)
    succs;
  preds

(* iterative DFS postorder, reversed; index-based stack (no lists) so
   adversarial CFG depth cannot overflow the call stack *)
let rpo_of_succs (succs : int array array) : int array =
  let n = Array.length succs in
  if n = 0 then [||]
  else begin
    let visited = Array.make n false in
    let post = Array.make n 0 in
    let post_len = ref 0 in
    let stack_b = Array.make n 0 in
    let stack_i = Array.make n 0 in
    let top = ref 0 in
    let push b =
      if not visited.(b) then begin
        visited.(b) <- true;
        stack_b.(!top) <- b;
        stack_i.(!top) <- 0;
        incr top
      end
    in
    push 0;
    while !top > 0 do
      let t = !top - 1 in
      let b = stack_b.(t) in
      let i = stack_i.(t) in
      let ss = succs.(b) in
      if i < Array.length ss then begin
        stack_i.(t) <- i + 1;
        push ss.(i)
      end
      else begin
        post.(!post_len) <- b;
        incr post_len;
        decr top
      end
    done;
    Array.init !post_len (fun i -> post.(!post_len - 1 - i))
  end

(** Reverse-postorder numbering of the blocks reachable from block 0.
    Returns the RPO sequence (block ids, entry first). *)
let rpo (blocks : Mir.block array) : int array =
  rpo_of_succs (successors_array blocks)

(** The body's CFG structure (successor/predecessor arrays, RPO
    numbering, reachability), computed on first use and memoized on the
    body itself: every fixpoint over the same body — across detectors,
    analysis contexts and bench iterations — shares one computation. *)
let cfg_of (body : Mir.body) : Mir.cfg =
  match body.Mir.body_cfg with
  | Some c -> c
  | None ->
      let n = Array.length body.Mir.blocks in
      let succs = successors_array body.Mir.blocks in
      let order = rpo_of_succs succs in
      let prio = Array.make n (-1) in
      Array.iteri (fun p b -> prio.(b) <- p) order;
      let reachable = Array.make n false in
      Array.iter (fun b -> reachable.(b) <- true) order;
      let c =
        {
          Mir.cfg_succs = succs;
          cfg_preds = preds_of_succs succs;
          cfg_rpo = order;
          cfg_prio = prio;
          cfg_reachable = reachable;
        }
      in
      body.Mir.body_cfg <- Some c;
      c

module Make (D : DOMAIN) = struct
  type result = {
    entry : D.t array;  (** state at block entry *)
    exit_ : D.t array;  (** state at block exit *)
    converged : bool;
        (** false when the worklist was abandoned on an exhausted
            [Support.Fuel] budget or an expired [Support.Deadline]; the
            states are then a snapshot short of the fixpoint (an
            under-approximation for may-domains) *)
    deadline_hit : bool;
        (** true when the early stop was caused by the wall-clock
            deadline rather than fuel (distinguishes W0402 from W0401
            diagnostics); always false when [converged] *)
    passes : int;
        (** block transfers executed before convergence (the worklist
            scheduling cost; RPO order keeps this near-minimal) *)
    reachable : bool array;
        (** blocks reachable from the entry block; unreachable blocks
            are never transferred and keep [bottom] entry/exit *)
  }

  let transfer_block ~transfer_stmt ~transfer_term (blk : Mir.block) state =
    let state = List.fold_left transfer_stmt state blk.Mir.stmts in
    transfer_term state blk.Mir.term

  (** Run to fixpoint. [init] is the state at the function entry.
      Reachable blocks are seeded in reverse postorder and the pending
      block with the smallest RPO index is always popped next. *)
  let run (body : Mir.body) ~(init : D.t)
      ~(transfer_stmt : D.t -> Mir.stmt -> D.t)
      ~(transfer_term : D.t -> Mir.terminator -> D.t) : result =
    let n = Array.length body.Mir.blocks in
    let entry = Array.make n D.bottom in
    let exit_ = Array.make n D.bottom in
    let cfg = cfg_of body in
    let succs = cfg.Mir.cfg_succs in
    let order_of = cfg.Mir.cfg_rpo in
    let reachable = cfg.Mir.cfg_reachable in
    let passes = ref 0 in
    if n = 0 then
      {
        entry;
        exit_;
        converged = true;
        deadline_hit = false;
        passes = 0;
        reachable;
      }
    else begin
      entry.(0) <- init;
      let preds = cfg.Mir.cfg_preds in
      let input i =
        let acc = ref (if i = 0 then init else D.bottom) in
        Array.iter (fun p -> acc := D.join !acc exit_.(p)) preds.(i);
        !acc
      in
      let fuel = Support.Fuel.counter () in
      let dl = Support.Deadline.token () in
      (* process block i; returns true when its exit changed *)
      let process i =
        incr passes;
        entry.(i) <- input i;
        let out =
          transfer_block ~transfer_stmt ~transfer_term body.Mir.blocks.(i)
            entry.(i)
        in
        if D.equal out exit_.(i) then false
        else begin
          exit_.(i) <- out;
          true
        end
      in
      let nr = Array.length order_of in
      let prio = cfg.Mir.cfg_prio in
      (* pending priorities as a bit matrix; pop = lowest set bit *)
      let nwords =
        (nr + Support.Bitset.word_bits - 1) / Support.Bitset.word_bits
      in
      let pending = Array.make (max nwords 1) 0 in
      let n_pending = ref nr in
      for p = 0 to nr - 1 do
        let w = p / Support.Bitset.word_bits in
        pending.(w) <-
          pending.(w) lor (1 lsl (p mod Support.Bitset.word_bits))
      done;
      let push p =
        let w = p / Support.Bitset.word_bits in
        let bit = 1 lsl (p mod Support.Bitset.word_bits) in
        if pending.(w) land bit = 0 then begin
          pending.(w) <- pending.(w) lor bit;
          incr n_pending
        end
      in
      let pop () =
        (* lowest pending priority; caller guarantees non-empty *)
        let w = ref 0 in
        while pending.(!w) = 0 do
          incr w
        done;
        let bits = pending.(!w) in
        let b = Support.Bitset.ntz bits in
        pending.(!w) <- bits land (bits - 1);
        decr n_pending;
        (!w * Support.Bitset.word_bits) + b
      in
      while
        !n_pending > 0
        && Support.Fuel.burn fuel
        && not (Support.Deadline.expired dl)
      do
        let i = order_of.(pop ()) in
        if process i then
          Array.iter
            (fun s -> if prio.(s) >= 0 then push prio.(s))
            succs.(i)
      done;
      let converged = !n_pending = 0 in
      Atomic.fetch_and_add transfers_counter !passes |> ignore;
      let deadline_hit = (not converged) && Support.Deadline.hit dl in
      record_run ~passes:!passes ~converged ~deadline_hit;
      { entry; exit_; converged; deadline_hit; passes = !passes; reachable }
    end

  (** Visit every statement (and terminator) of [body] with the dataflow
      state holding *before* it. [f] sees [`Stmt] and [`Term] events. *)
  let iter_with_state (body : Mir.body) (r : result)
      ~(transfer_stmt : D.t -> Mir.stmt -> D.t)
      ~(f :
         block:int -> D.t -> [ `Stmt of Mir.stmt | `Term of Mir.terminator ] -> unit)
      =
    Array.iteri
      (fun i blk ->
        let state = ref r.entry.(i) in
        List.iter
          (fun s ->
            f ~block:i !state (`Stmt s);
            state := transfer_stmt !state s)
          blk.Mir.stmts;
        f ~block:i !state (`Term blk.Mir.term))
      body.Mir.blocks
end

(** Integer-set domain used by most analyses (sets of locals or
    acquisition ids). Since the bitset kernels landed this *is*
    [Support.Bitset] — dense int-array sets with word-wise joins — but
    the historical [IntSet]/[IntSetFlow] names remain the public API. *)
module IntSet = Support.Bitset

module BitsetDomain = struct
  type t = Support.Bitset.t

  let equal = Support.Bitset.equal
  let join = Support.Bitset.union
  let bottom = Support.Bitset.empty
end

module IntSetDomain = BitsetDomain
module BitsetFlow = Make (BitsetDomain)
module IntSetFlow = BitsetFlow

(** Specialized engine for int-set domains whose ids all fit one
    machine word (< [Support.Bitset.word_bits], i.e. sets of locals or
    acquisition ids in any realistic body): the state is an unboxed
    [int], so join/equal/transfer allocate nothing at all. Same RPO
    priority worklist, fuel discipline and unreachable-block behavior
    as [Make]; clients lift a result back into bitsets with
    {!Word.to_flow}. *)
module Word = struct
  type result = {
    entry : int array;
    exit_ : int array;
    converged : bool;
    deadline_hit : bool;
    passes : int;
    reachable : bool array;
  }

  let run (body : Mir.body) ~(init : int)
      ~(transfer_stmt : int -> Mir.stmt -> int)
      ~(transfer_term : int -> Mir.terminator -> int) : result =
    let blocks = body.Mir.blocks in
    let n = Array.length blocks in
    let entry = Array.make n 0 in
    let exit_ = Array.make n 0 in
    let cfg = cfg_of body in
    let succs = cfg.Mir.cfg_succs in
    let order_of = cfg.Mir.cfg_rpo in
    let reachable = cfg.Mir.cfg_reachable in
    if n = 0 then
      {
        entry;
        exit_;
        converged = true;
        deadline_hit = false;
        passes = 0;
        reachable;
      }
    else begin
      entry.(0) <- init;
      let preds = cfg.Mir.cfg_preds in
      let prio = cfg.Mir.cfg_prio in
      let nr = Array.length order_of in
      let nwords =
        (nr + Support.Bitset.word_bits - 1) / Support.Bitset.word_bits
      in
      let pending = Array.make (max nwords 1) 0 in
      let n_pending = ref nr in
      for p = 0 to nr - 1 do
        let w = p / Support.Bitset.word_bits in
        pending.(w) <-
          pending.(w) lor (1 lsl (p mod Support.Bitset.word_bits))
      done;
      let push p =
        let w = p / Support.Bitset.word_bits in
        let bit = 1 lsl (p mod Support.Bitset.word_bits) in
        if pending.(w) land bit = 0 then begin
          pending.(w) <- pending.(w) lor bit;
          incr n_pending
        end
      in
      let pop () =
        let w = ref 0 in
        while pending.(!w) = 0 do
          incr w
        done;
        let bits = pending.(!w) in
        let b = Support.Bitset.ntz bits in
        pending.(!w) <- bits land (bits - 1);
        decr n_pending;
        (!w * Support.Bitset.word_bits) + b
      in
      let fuel = Support.Fuel.counter () in
      let dl = Support.Deadline.token () in
      let passes = ref 0 in
      while
        !n_pending > 0
        && Support.Fuel.burn fuel
        && not (Support.Deadline.expired dl)
      do
        let i = order_of.(pop ()) in
        incr passes;
        let inp = ref (if i = 0 then init else 0) in
        Array.iter (fun p -> inp := !inp lor exit_.(p)) preds.(i);
        entry.(i) <- !inp;
        let st = List.fold_left transfer_stmt !inp blocks.(i).Mir.stmts in
        let out = transfer_term st blocks.(i).Mir.term in
        if out <> exit_.(i) then begin
          exit_.(i) <- out;
          Array.iter (fun s -> if prio.(s) >= 0 then push prio.(s)) succs.(i)
        end
      done;
      Atomic.fetch_and_add transfers_counter !passes |> ignore;
      let converged = !n_pending = 0 in
      let deadline_hit = (not converged) && Support.Deadline.hit dl in
      record_run ~passes:!passes ~converged ~deadline_hit;
      { entry; exit_; converged; deadline_hit; passes = !passes; reachable }
    end

  (** The same result with every entry/exit word lifted into a
      [Support.Bitset], for clients that run this kernel when ids fit
      one word and {!IntSetFlow} otherwise. *)
  let to_flow (w : result) : IntSetFlow.result =
    {
      IntSetFlow.entry = Array.map Support.Bitset.of_word w.entry;
      exit_ = Array.map Support.Bitset.of_word w.exit_;
      converged = w.converged;
      deadline_hit = w.deadline_hit;
      passes = w.passes;
      reachable = w.reachable;
    }
end
