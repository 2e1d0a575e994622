(** The dynamic oracle: per-bug-class verdicts over bounded schedule
    exploration.

    {!Machine.run} gives one execution under one schedule; the oracle
    runs up to [K] seeded schedules (skipping the extras when schedule
    0 never spawned a thread — single-threaded programs are
    deterministic) and folds the outcomes into one verdict per
    {!Machine.trap_class}:

    - [Trap] — some schedule manifested a violation of that class
      ([E0601]);
    - [Clean] — no schedule trapped it and at least one schedule ran
      to completion fully modelled (no unsupported constructs);
    - [Inconclusive] — neither: the run degraded ([W0602] fuel,
      [W0603] deadline, [W0604] unsupported constructs or deadlock),
      or a trap of a *different* class aborted execution first.

    Inconclusive is a first-class verdict, never silently collapsed
    into clean: the differential harness counts it separately so
    static/dynamic disagreement numbers are honest. *)

open Support
module Mir = Ir.Mir

type reason =
  | Unsupported of string list
      (** constructs the machine cannot model tainted every run *)
  | Fuel_exhausted  (** every un-trapped schedule ran out of steps *)
  | Deadline_hit  (** the wall-clock budget expired mid-run *)
  | Deadlock  (** threads wedged; execution never completed *)
  | Aborted of Machine.trap_class
      (** a trap of another class ended execution before this class
          could be observed to completion *)

type verdict = Trap of Machine.trap | Clean | Inconclusive of reason

type t = {
  verdicts : (Machine.trap_class * verdict) list;
      (** one row per class, in {!Machine.all_classes} order *)
  diags : Diag.t list;  (** E0601/W0602/W0603/W0604, deterministic order *)
  schedules : int;  (** schedules actually executed *)
  steps : int;  (** total interpreter steps across all schedules *)
}

let default_fuel = 200_000
let default_deadline_ms = 1_000
let default_schedules = 3
let default_seed = 0x5EED

let verdict_name = function
  | Trap _ -> "trap"
  | Clean -> "clean"
  | Inconclusive _ -> "inconclusive"

let reason_name = function
  | Unsupported _ -> "unsupported"
  | Fuel_exhausted -> "fuel"
  | Deadline_hit -> "deadline"
  | Deadlock -> "deadlock"
  | Aborted c -> "aborted:" ^ Machine.class_name c

(* ---------------- observability ------------------------------------ *)

let runs_total =
  Metrics.counter ~help:"Oracle program executions" "rustudy_oracle_runs_total"

let traps_total =
  Metrics.counter ~labels:[ "class" ]
    ~help:"Oracle trap verdicts by bug class" "rustudy_oracle_traps_total"

let inconclusive_total =
  Metrics.counter ~labels:[ "class" ]
    ~help:"Oracle inconclusive verdicts by bug class"
    "rustudy_oracle_inconclusive_total"

(* ---------------- the oracle ---------------------------------------- *)

let trapped (r : Machine.run_result) =
  match r.Machine.outcome with Machine.Trapped _ -> true | _ -> false

(** Entry points to drive: [main] when present, otherwise every
    non-closure function (with arguments synthesized from parameter
    types) — corpus entries are mostly library snippets. *)
let entries (prog : Mir.program) : string list =
  match Mir.find_body prog "main" with
  | Some _ -> [ "main" ]
  | None ->
      List.filter_map
        (fun (b : Mir.body) ->
          let id = b.Mir.fn_id in
          let is_closure =
            let n = String.length id in
            let pat = "{closure" in
            let pn = String.length pat in
            let rec go i =
              i + pn <= n && (String.sub id i pn = pat || go (i + 1))
            in
            go 0
          in
          if is_closure then None else Some id)
        (Mir.body_list prog)

(** Run the oracle over a lowered program. [fuel] is the per-schedule
    step budget, [deadline_ms] the per-schedule wall-clock budget;
    both degrade to inconclusive rather than raising. Same
    [seed]/budgets in, byte-identical verdicts out. *)
let run ?entry ?(fuel = default_fuel) ?(deadline_ms = default_deadline_ms)
    ?(schedules = default_schedules) ?(seed = default_seed)
    (prog : Mir.program) : t =
  Trace.with_span ~cat:"oracle" "oracle.exec" @@ fun () ->
  Metrics.incr runs_total;
  let run_one entry index =
    Trace.with_span ~cat:"oracle"
      ~args:[ ("entry", entry); ("schedule", string_of_int index) ]
      "oracle.schedule"
    @@ fun () ->
    fst @@ Budget.run ~deadline_ms (fun () ->
        Machine.run ~entry ~max_steps:fuel
          ~sched:(Sched.make ~seed ~index)
          prog)
  in
  let entry_list =
    match entry with Some e -> [ e ] | None -> entries prog
  in
  (* one schedule group per entry point *)
  let groups =
    List.map
      (fun e ->
        let r0 = run_one e 0 in
        let rest =
          (* extra schedules only pay off when threads actually
             interleave, and a manifested trap is already definitive *)
          if r0.Machine.spawned = 0 || trapped r0 then []
          else
            let rec go index acc =
              if index >= max 1 schedules then List.rev acc
              else
                let r = run_one e index in
                if trapped r then List.rev (r :: acc)
                else go (index + 1) (r :: acc)
            in
            go 1 []
        in
        r0 :: rest)
      entry_list
  in
  let results = List.concat groups in
  (* an entry is fully observed when some schedule ran to completion
     with nothing unmodeled *)
  let observed (group : Machine.run_result list) =
    List.exists
      (fun (r : Machine.run_result) ->
        match r.Machine.outcome with
        | Machine.Done _ -> r.Machine.unsupported = []
        | _ -> false)
      group
  in
  let clean_run = groups <> [] && List.for_all observed groups in
  let unobserved = List.filter (fun g -> not (observed g)) groups in
  let traps =
    List.filter_map
      (fun (r : Machine.run_result) ->
        match r.Machine.outcome with
        | Machine.Trapped tr -> Some tr
        | _ -> None)
      results
  in
  let traps =
    (* an all-threads-parked-on-locks deadlock is the cross-thread
       flavour of the double-lock class: manifest it as a trap too *)
    if
      List.exists
        (fun (r : Machine.run_result) ->
          r.Machine.outcome = Machine.Deadlocked true)
        results
      && not
           (List.exists
              (fun (tr : Machine.trap) ->
                tr.Machine.tr_class = Machine.Double_lock)
              traps)
    then
      traps
      @ [
          {
            Machine.tr_class = Machine.Double_lock;
            tr_fn = "<scheduler>";
            tr_span = Span.dummy;
            tr_msg = "all threads deadlocked waiting on locks";
          };
        ]
    else traps
  in
  let unobs_results = List.concat unobserved in
  let unsupported =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (r : Machine.run_result) -> r.Machine.unsupported)
         unobs_results)
  in
  let all_unsupported =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (r : Machine.run_result) -> r.Machine.unsupported)
         results)
  in
  let fuel_out =
    List.exists
      (fun (r : Machine.run_result) -> r.Machine.outcome = Machine.Fuel_out)
      unobs_results
  in
  let deadline_out =
    List.exists
      (fun (r : Machine.run_result) -> r.Machine.outcome = Machine.Deadline_out)
      unobs_results
  in
  let deadlocked =
    List.exists
      (fun (r : Machine.run_result) ->
        match r.Machine.outcome with Machine.Deadlocked _ -> true | _ -> false)
      results
  in
  let reason =
    if unsupported <> [] then Unsupported unsupported
    else if fuel_out then Fuel_exhausted
    else if deadline_out then Deadline_hit
    else
      match traps with
      | tr :: _ -> Aborted tr.Machine.tr_class
      | [] -> Deadlock
  in
  let verdicts =
    List.map
      (fun c ->
        match
          List.find_opt (fun (tr : Machine.trap) -> tr.Machine.tr_class = c) traps
        with
        | Some tr -> (c, Trap tr)
        | None -> if clean_run then (c, Clean) else (c, Inconclusive reason))
      Machine.all_classes
  in
  List.iter
    (fun (c, v) ->
      match v with
      | Trap _ -> Metrics.incr ~labels:[ Machine.class_name c ] traps_total
      | Inconclusive _ ->
          Metrics.incr ~labels:[ Machine.class_name c ] inconclusive_total
      | Clean -> ())
    verdicts;
  let dedup_traps =
    List.sort_uniq
      (fun (a : Machine.trap) b ->
        compare (a.Machine.tr_class, a.Machine.tr_msg) (b.Machine.tr_class, b.Machine.tr_msg))
      traps
  in
  let diags =
    List.map
      (fun (tr : Machine.trap) ->
        Diag.error ~code:Diag.Oracle_trap ~span:tr.Machine.tr_span
          "oracle trap [%s] in %s: %s"
          (Machine.class_name tr.Machine.tr_class)
          tr.Machine.tr_fn tr.Machine.tr_msg)
      dedup_traps
    @ (if fuel_out then
         [
           Diag.warning ~code:Diag.Oracle_fuel
             "oracle fuel exhausted (%d steps); verdict degraded" fuel;
         ]
       else [])
    @ (if deadline_out then
         [
           Diag.warning ~code:Diag.Oracle_deadline
             "oracle deadline hit (%d ms); verdict degraded" deadline_ms;
         ]
       else [])
    @ (if all_unsupported <> [] then
         [
           Diag.warning ~code:Diag.Oracle_unsupported
             "oracle could not model: %s"
             (String.concat "; " all_unsupported);
         ]
       else [])
    @
    if deadlocked && traps = [] then
      [
        Diag.warning ~code:Diag.Oracle_unsupported
          "execution deadlocked; completion never observed";
      ]
    else []
  in
  let steps =
    List.fold_left (fun acc (r : Machine.run_result) -> acc + r.Machine.steps) 0 results
  in
  { verdicts; diags; schedules = List.length results; steps }

(* ---------------- rendering ----------------------------------------- *)

let verdict_detail = function
  | Trap tr -> Printf.sprintf "trap (%s)" tr.Machine.tr_msg
  | Clean -> "clean"
  | Inconclusive r -> Printf.sprintf "inconclusive (%s)" (reason_name r)

(** One line per class, stable order — the unit the determinism tests
    compare byte-for-byte. *)
let render (t : t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "oracle: %d schedule(s), %d step(s)\n" t.schedules t.steps);
  List.iter
    (fun (c, v) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %s\n" (Machine.class_name c) (verdict_detail v)))
    t.verdicts;
  Buffer.contents b
