(** Summary-based compositional interprocedural analysis.

    The engine computes per-function summaries bottom-up over the
    SCC-condensed function-call graph (the design of "Fast
    Summary-based Whole-program Analysis to Identify Unsafe Memory
    Accesses in Rust"): callees are summarised before their callers, so
    a call site instantiates the callee's finished summary instead of
    re-entering its body, and fixpoint iteration only ever runs inside
    a non-trivial SCC (mutual recursion).

    Detectors plug in as {!client}s: a summary recompute function, an
    equality for convergence, and a content-address key. For programs
    large enough to matter, finished summaries are stored
    content-addressed in {!Cache} (keyed by a Merkle digest of the
    function body, its transitive callees and the client config), so
    re-analysing an edited program recomputes only the functions whose
    digest — own body or some callee's — actually changed. *)

open Ir
module IntSet = Dataflow.IntSet

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_computed =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Per-function summary recomputations (SCC-internal fixpoint \
           rounds recompute members once per round)."
    "rustudy_summary_computed_total"

let m_instantiated =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Callee summaries instantiated at call sites (during summary \
           computation and detection)."
    "rustudy_summary_instantiated_total"

let m_cache_hits =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Per-function summaries served from the content-addressed \
           summary store instead of being recomputed."
    "rustudy_summary_cache_hits_total"

let note_computed analysis =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_computed ~labels:[ analysis ]

let note_instantiated ?(n = 1) analysis =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_instantiated ~labels:[ analysis ]
      ~by:(float_of_int n)

let note_cache_hits analysis n =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_cache_hits ~labels:[ analysis ]
      ~by:(float_of_int n)

(* ------------------------------------------------------------------ *)
(* SCC condensation (iterative Tarjan)                                 *)
(* ------------------------------------------------------------------ *)

module Scc = struct
  type t = {
    count : int;
    comp_of : int array;  (** node -> component id *)
    members : int array array;
        (** component id -> member nodes, ascending *)
    order : int array;
        (** component ids in reverse-topological order: every
            component appears after all components it has edges into
            (callees before callers) *)
    has_cycle : bool array;
        (** component id -> more than one member, or a self-loop *)
  }

  (* Tarjan with an explicit DFS stack: the synthetic scaling corpus
     has 10k-deep call chains, which would overflow the OCaml stack in
     the recursive formulation. Components are emitted callees-first
     (Tarjan's emission order is reverse-topological) and roots are
     scanned in ascending node order, so the result is deterministic
     for a given graph. *)
  let condense ~n ~(succs : int array array) : t =
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let tstack = Array.make n 0 in
    let tsp = ref 0 in
    let comp_of = Array.make n (-1) in
    let rev_members = ref [] in
    let ncomp = ref 0 in
    let next_index = ref 0 in
    (* DFS frames: node + next-successor cursor *)
    let frame_v = Array.make (max n 1) 0 in
    let frame_ci = Array.make (max n 1) 0 in
    for root = 0 to n - 1 do
      if index.(root) < 0 then begin
        let sp = ref 0 in
        frame_v.(0) <- root;
        frame_ci.(0) <- 0;
        index.(root) <- !next_index;
        lowlink.(root) <- !next_index;
        incr next_index;
        tstack.(!tsp) <- root;
        incr tsp;
        on_stack.(root) <- true;
        while !sp >= 0 do
          let v = frame_v.(!sp) in
          let ci = frame_ci.(!sp) in
          if ci < Array.length succs.(v) then begin
            frame_ci.(!sp) <- ci + 1;
            let w = succs.(v).(ci) in
            if index.(w) < 0 then begin
              incr sp;
              frame_v.(!sp) <- w;
              frame_ci.(!sp) <- 0;
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              tstack.(!tsp) <- w;
              incr tsp;
              on_stack.(w) <- true
            end
            else if on_stack.(w) && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
          end
          else begin
            if lowlink.(v) = index.(v) then begin
              (* v is the root of a component: pop it off the Tarjan
                 stack *)
              let members = ref [] in
              let continue_ = ref true in
              while !continue_ do
                decr tsp;
                let w = tstack.(!tsp) in
                on_stack.(w) <- false;
                comp_of.(w) <- !ncomp;
                members := w :: !members;
                if w = v then continue_ := false
              done;
              let ms = Array.of_list !members in
              Array.sort compare ms;
              rev_members := ms :: !rev_members;
              incr ncomp
            end;
            decr sp;
            if !sp >= 0 then begin
              let parent = frame_v.(!sp) in
              if lowlink.(v) < lowlink.(parent) then
                lowlink.(parent) <- lowlink.(v)
            end
          end
        done
      end
    done;
    let count = !ncomp in
    let members = Array.of_list (List.rev !rev_members) in
    let has_cycle =
      Array.mapi
        (fun c ms ->
          Array.length ms > 1
          || Array.exists (fun w -> comp_of.(w) = c) succs.(ms.(0)))
        members
    in
    (* Components were emitted callees-first, so ids ascend in
       reverse-topological order already. *)
    let order = Array.init count (fun i -> i) in
    { count; comp_of; members; order; has_cycle }
end

(* ------------------------------------------------------------------ *)
(* The function-call dependency graph                                  *)
(* ------------------------------------------------------------------ *)

let callee_fn_id = function
  | Mir.Fn f -> Some f
  | Mir.Method (h, m) -> Some (h ^ "::" ^ m)
  | Mir.ClosureCall id -> Some id
  | Mir.Builtin _ -> None

(* Summary dependencies are exactly the call sites the detectors
   instantiate summaries at: direct calls whose callee names a body of
   this program. (Builtins have no summaries; spawn/once closure edges
   are invoked through builtins and stay out.) *)
let dep_succs (bodies : Mir.body array) : int array array =
  let ix_of = Hashtbl.create (Array.length bodies * 2) in
  Array.iteri
    (fun i (b : Mir.body) -> Hashtbl.replace ix_of b.Mir.fn_id i)
    bodies;
  Array.map
    (fun (b : Mir.body) ->
      let seen = Hashtbl.create 4 in
      let acc = ref [] in
      Array.iter
        (fun (blk : Mir.block) ->
          match blk.Mir.term with
          | Mir.Call (c, _) -> (
              match callee_fn_id c.Mir.callee with
              | Some f -> (
                  match Hashtbl.find_opt ix_of f with
                  | Some j when not (Hashtbl.mem seen j) ->
                      Hashtbl.replace seen j ();
                      acc := j :: !acc
                  | _ -> ())
              | None -> ())
          | _ -> ())
        b.Mir.blocks;
      let a = Array.of_list !acc in
      Array.sort compare a;
      a)
    bodies

type graph = { g_succs : int array array; g_scc : Scc.t }

let graph_key : graph Cache.Ext.key = Cache.Ext.create ()

let graph_of (ctx : Cache.t) (bodies : Mir.body array) : graph =
  Cache.ext_program ctx graph_key ~compute:(fun () ->
      let succs = dep_succs bodies in
      { g_succs = succs; g_scc = Scc.condense ~n:(Array.length bodies) ~succs })

let condensation (ctx : Cache.t) : Scc.t =
  (graph_of ctx (Array.of_list (Mir.body_list (Cache.program ctx)))).g_scc

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)
(* ------------------------------------------------------------------ *)

(* [Mir.body_to_string] covers names, types, and the full CFG but not
   source positions; findings carry spans, so two textually identical
   bodies at different locations must digest differently. *)
let body_digest (body : Mir.body) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Mir.body_to_string body);
  let span (s : Support.Span.t) =
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (Support.Span.to_string s)
  in
  span body.Mir.body_span;
  List.iter
    (fun (i, n) ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_string buf n)
    body.Mir.captures;
  Array.iter (fun (li : Mir.local_info) -> span li.Mir.l_span) body.Mir.locals;
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter (fun (s : Mir.stmt) -> span s.Mir.s_span) blk.Mir.stmts;
      span blk.Mir.t_span;
      match blk.Mir.term with
      | Mir.Call (c, _) -> span c.Mir.call_span
      | _ -> ())
    body.Mir.blocks;
  Digest.string (Buffer.contents buf)

let digest_key : string Cache.Ext.key = Cache.Ext.create ()

let digest_of (ctx : Cache.t) (body : Mir.body) : string =
  Cache.ext ctx digest_key body ~compute:body_digest

(* Content addressing costs a body pretty-print + MD5 per function; on
   the many tiny corpus programs that overhead buys nothing (the whole
   summary computation is a few table operations), so the store only
   engages above a body-count threshold. Tests and benches lower it. *)
let store_min_bodies_cell = Atomic.make 24
let store_min_bodies () = Atomic.get store_min_bodies_cell
let set_store_min_bodies n = Atomic.set store_min_bodies_cell (max 0 n)

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type 'a client = {
  name : string;  (** metrics label; also part of the content address *)
  params : string;
      (** client configuration fingerprint (e.g. the UAF detector's
          extern-deref assumption) mixed into the content address *)
  skey : 'a array Cache.Ext.key;
      (** typed slot for the content-addressed store (one SCC's member
          summaries per entry) *)
  equal : 'a -> 'a -> bool;  (** SCC fixpoint convergence test *)
  compute : lookup:(string -> 'a option) -> Mir.body -> 'a;
      (** recompute one function's summary; [lookup] serves finished
          callee summaries ([None] means "not yet computed", which
          every client must read as the bottom summary) *)
}

(* Cap on chaotic-iteration rounds inside one SCC: a recursive cycle
   that keeps growing a summary (e.g. a lock path gaining a field per
   round) truncates instead of diverging. DAG portions never iterate at
   all. *)
let scc_round_cap = 8

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let compute ?(force_store = false) (ctx : Cache.t) (client : 'a client) :
    (string, 'a) Hashtbl.t =
  let bodies = Array.of_list (Mir.body_list (Cache.program ctx)) in
  let n = Array.length bodies in
  let tbl : (string, 'a) Hashtbl.t = Hashtbl.create (max 16 (2 * n)) in
  if n = 0 then tbl
  else begin
    let { g_succs = succs; g_scc = scc } = graph_of ctx bodies in
    let use_store = force_store || n >= store_min_bodies () in
    let lookup name =
      match Hashtbl.find_opt tbl name with
      | Some v ->
          note_instantiated client.name;
          Some v
      | None -> None
    in
    let compute_one ~lookup v =
      note_computed client.name;
      client.compute ~lookup bodies.(v)
    in
    (* One SCC, with every external callee's summary already in [tbl]:
       a trivial component is one recompute; a cycle iterates its
       members (ascending fn_id order) to a local fixpoint, the
       in-progress values visible through an overlay. *)
    let compute_scc c : 'a array =
      let members = scc.Scc.members.(c) in
      if not scc.Scc.has_cycle.(c) then [| compute_one ~lookup members.(0) |]
      else begin
        let local : (string, 'a) Hashtbl.t =
          Hashtbl.create (Array.length members * 2)
        in
        let lookup' name =
          match Hashtbl.find_opt local name with
          | Some v ->
              note_instantiated client.name;
              Some v
          | None -> lookup name
        in
        let changed = ref true in
        let rounds = ref 0 in
        while !changed && !rounds < scc_round_cap do
          incr rounds;
          changed := false;
          Array.iter
            (fun v ->
              let fn = bodies.(v).Mir.fn_id in
              let nv = compute_one ~lookup:lookup' v in
              match Hashtbl.find_opt local fn with
              | Some old when client.equal old nv -> ()
              | _ ->
                  Hashtbl.replace local fn nv;
                  changed := true)
            members
        done;
        Array.map (fun v -> Hashtbl.find local bodies.(v).Mir.fn_id) members
      end
    in
    (* Merkle content address of one SCC: client identity + member body
       digests + the addresses of every callee component. An edit to
       one function changes only its own component's address and its
       transitive callers' — callees and siblings still hit. *)
    let scc_keys = Array.make scc.Scc.count "" in
    let key_of_scc c =
      let buf = Buffer.create 256 in
      Buffer.add_string buf client.name;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf client.params;
      Array.iter
        (fun v ->
          Buffer.add_char buf '\x00';
          Buffer.add_string buf (digest_of ctx bodies.(v)))
        scc.Scc.members.(c);
      let ext_seen = Hashtbl.create 4 in
      let ext = ref [] in
      Array.iter
        (fun v ->
          Array.iter
            (fun w ->
              let cw = scc.Scc.comp_of.(w) in
              if cw <> c && not (Hashtbl.mem ext_seen cw) then begin
                Hashtbl.replace ext_seen cw ();
                ext := cw :: !ext
              end)
            succs.(v))
        scc.Scc.members.(c);
      List.iter
        (fun cw -> Buffer.add_string buf scc_keys.(cw))
        (List.sort compare !ext);
      Digest.string (Buffer.contents buf)
    in
    let dl = Support.Deadline.token () in
    let give_up c =
      (* stop cleanly: callers of the unprocessed components read
         absent (bottom) summaries, an under-approximation like every
         other deadline-truncated analysis. Nothing partial is
         stored. *)
      Cache.deadline_warning ctx
        bodies.(scc.Scc.members.(c).(0)).Mir.fn_id
        "interprocedural summary"
    in
    (* Serve one component: store lookup (when engaged), recompute on
       miss, publish the member summaries into [tbl]. *)
    let serve_scc c =
      let vs =
        if not use_store then compute_scc c
        else begin
          scc_keys.(c) <- key_of_scc c;
          match Cache.summary_find client.skey scc_keys.(c) with
          | Some vs ->
              note_cache_hits client.name (Array.length vs);
              vs
          | None ->
              let vs = compute_scc c in
              Cache.summary_add client.skey scc_keys.(c) vs;
              vs
        end
      in
      Array.iteri
        (fun i v ->
          Hashtbl.replace tbl bodies.(scc.Scc.members.(c).(i)).Mir.fn_id v)
        vs
    in
    (* Walk the components in reverse-topological order: every callee
       component is finished before its callers are served. *)
    let walk () =
      let order = scc.Scc.order in
      let i = ref 0 in
      let stop = ref false in
      while (not !stop) && !i < Array.length order do
        (* poll the deadline every few components, not every one *)
        if !i land 15 = 0 && Support.Deadline.expired dl then begin
          stop := true;
          give_up order.(!i)
        end
        else begin
          serve_scc order.(!i);
          incr i
        end
      done
    in
    (* span arguments are built only when tracing is on: the corpus is
       dominated by sub-ten-function programs, where they would rival
       the analysis itself *)
    if Support.Trace.enabled () then
      Support.Trace.with_span ~cat:"summary"
        ~args:
          [
            ("analysis", client.name);
            ("functions", string_of_int n);
            ("sccs", string_of_int scc.Scc.count);
          ]
        "summary.compute" walk
    else walk ();
    tbl
  end

(* ------------------------------------------------------------------ *)
(* Built-in client: parameter escape/return effects                    *)
(* ------------------------------------------------------------------ *)

type escape = {
  esc_returned : IntSet.t;
      (** parameter indices that may flow into the return value *)
  esc_escaped : IntSet.t;
      (** parameter indices that may outlive the call: stored into a
          static, handed to an extern (FFI) callee, or passed on to a
          callee that lets them escape *)
}

let escape_equal a b =
  IntSet.equal a.esc_returned b.esc_returned
  && IntSet.equal a.esc_escaped b.esc_escaped

let operand_place = function
  | Mir.Copy p | Mir.Move p -> Some p
  | Mir.Const _ -> None

let escape_of_body ~lookup (ctx : Cache.t) (body : Mir.body) : escape =
  let aliases = lazy (Cache.aliases ctx body) in
  let param_root (p : Mir.place) =
    match (Alias.path_of_place (Lazy.force aliases) p).Alias.root with
    | Alias.Param i -> Some i
    | _ -> None
  in
  let returned = ref IntSet.empty in
  let escaped = ref IntSet.empty in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, rv) when
              (match
                 (Alias.path_of_place (Lazy.force aliases) dest).Alias.root
               with
              | Alias.Static _ -> true
              | _ -> false) ->
              (* a parameter stored into a static outlives the call *)
              let note op =
                match Option.bind (operand_place op) param_root with
                | Some i -> escaped := IntSet.add i !escaped
                | None -> ()
              in
              (match rv with
              | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) -> note op
              | Mir.BinaryOp (_, a, b) ->
                  note a;
                  note b
              | Mir.Aggregate (_, ops) -> List.iter note ops
              | Mir.Ref (_, p) | Mir.AddrOf (_, p) -> (
                  match param_root p with
                  | Some i -> escaped := IntSet.add i !escaped
                  | None -> ())
              | Mir.Discriminant _ | Mir.Alloc _ -> ())
          | _ -> ())
        blk.Mir.stmts;
      match blk.Mir.term with
      | Mir.Return (Some op) -> (
          match Option.bind (operand_place op) param_root with
          | Some i -> returned := IntSet.add i !returned
          | None -> ())
      | Mir.Call (c, _) -> (
          match c.Mir.callee with
          | Mir.Builtin (Mir.Extern _) ->
              List.iter
                (fun op ->
                  match Option.bind (operand_place op) param_root with
                  | Some i -> escaped := IntSet.add i !escaped
                  | None -> ())
                c.Mir.args
          | callee -> (
              match callee_fn_id callee with
              | Some f -> (
                  match lookup f with
                  | Some (cs : escape) ->
                      List.iteri
                        (fun ai op ->
                          if IntSet.mem ai cs.esc_escaped then
                            match Option.bind (operand_place op) param_root with
                            | Some i -> escaped := IntSet.add i !escaped
                            | None -> ())
                        c.Mir.args
                  | None -> ())
              | None -> ()))
      | _ -> ())
    body.Mir.blocks;
  { esc_returned = !returned; esc_escaped = !escaped }

let escape_skey : escape array Cache.Ext.key = Cache.Ext.create ()

let escape_tbl_key : (string, escape) Hashtbl.t Cache.Ext.key =
  Cache.Ext.create ()

let escape_client ctx : escape client =
  {
    name = "escape";
    params = "";
    skey = escape_skey;
    equal = escape_equal;
    compute = (fun ~lookup body -> escape_of_body ~lookup ctx body);
  }

let escape_summaries (ctx : Cache.t) : (string, escape) Hashtbl.t =
  Cache.ext_program ctx escape_tbl_key ~compute:(fun () ->
      compute ctx (escape_client ctx))
