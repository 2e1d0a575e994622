(** Differential validation of the static detectors against the
    dynamic oracle ({!Interp.Oracle}).

    Every corpus program — and, with [~mutants:true], every seeded
    fault mutant — is analysed twice: statically (the detector suite
    over the recovery-lowered program) and dynamically (the budgeted
    interpreter). Each (program, bug-class) pair then lands in exactly
    one cell:

    - [agree_pos] — detector fired and the oracle trapped that class;
    - [agree_neg] — neither saw anything, on a fully-observed run;
    - [static_only] — detector fired but a clean complete execution
      never manifested the bug (FP candidate, or input-dependent);
    - [dynamic_only] — the oracle trapped a class no detector
      reported (static FN candidate);
    - [inconclusive] — the oracle degraded (budget, unsupported,
      deadlock, aborted by another trap): no dynamic ground truth.

    Per-target isolation is absolute: a target may degrade but never
    throw past its cell, and oracle runs restore the ambient fuel and
    deadline budgets so a sweep cannot poison a later [check]. *)

type row = {
  agree_pos : int;
  agree_neg : int;
  static_only : int;
  dynamic_only : int;
  inconclusive : int;
}

type result = {
  rows : (string * row) list;
      (** one confusion row per bug class, {!Interp.Machine.all_classes}
          order *)
  programs : int;  (** corpus entries swept *)
  mutants : int;  (** mutant programs swept *)
  degraded : string list;  (** ids whose static analysis failed to load *)
  escaped : int;  (** exceptions that escaped per-target isolation *)
}

(* The detector kind a dynamic trap class validates against. *)
let kind_of_class (c : Interp.Machine.trap_class) : Detectors.Report.kind =
  match c with
  | Interp.Machine.Uaf -> Detectors.Report.Use_after_free
  | Interp.Machine.Double_free -> Detectors.Report.Double_free
  | Interp.Machine.Invalid_free -> Detectors.Report.Invalid_free
  | Interp.Machine.Uninit_read -> Detectors.Report.Uninit_read
  | Interp.Machine.Null_deref -> Detectors.Report.Null_deref
  | Interp.Machine.Double_lock -> Detectors.Report.Double_lock

(* Verdicts for one target: for each class, (static fired, dynamic
   verdict). [Error id] = the program would not even load. *)
type target_verdict =
  (string * (bool * Interp.Oracle.verdict) list, string) Stdlib.result

let sweep_one ~fuel ~deadline_ms ~schedules ~seed (id, source) : target_verdict
    =
  (* budget hygiene: the target gets its own fuel scope, and the
     caller's deadline and fuel are restored afterwards, so a budget
     this target exhausts can never leak into the next target or a
     later [check] run *)
  fst @@ Support.Budget.run ~fuel:Support.Fuel.default_budget (fun () ->
      match
        Analysis.Cache.load_ctx_recovering ~cache:false
          ~file:(id ^ ".rs") source
      with
      | Error e -> Error (id ^ ": " ^ Printexc.to_string e)
      | exception e -> Error (id ^ ": " ^ Printexc.to_string e)
      | Ok ctx -> (
          try
            let findings = Detectors.All.bugs_ctx ctx in
            let prog = Analysis.Cache.program ctx in
            let oracle =
              Interp.Oracle.run ~fuel ~deadline_ms ~schedules ~seed prog
            in
            Ok
              ( id,
                List.map
                  (fun (c, v) ->
                    let fired =
                      List.exists
                        (fun (f : Detectors.Report.finding) ->
                          f.Detectors.Report.kind = kind_of_class c)
                        findings
                    in
                    (fired, v))
                  oracle.Interp.Oracle.verdicts )
          with e -> Error (id ^ ": " ^ Printexc.to_string e)))

let mutant_targets (e : Corpus.entry) =
  List.map
    (fun (name, src) -> (e.Corpus.id ^ "+" ^ name, src))
    (Support.Fault.mutations ~seed:0x5EED e.Corpus.source)
  @ List.map
      (fun (name, src) -> (e.Corpus.id ^ "+" ^ name, src))
      (Support.Fault.trap_mutations ~seed:0x5EED e.Corpus.source)

(** Sweep the corpus (and with [~mutants:true] all seeded fault
    mutants) through detectors and oracle. Deterministic for fixed
    inputs and seed, regardless of pool size; never raises. *)
let run ?domains ?(mutants = false) ?(fuel = Interp.Oracle.default_fuel)
    ?(deadline_ms = Interp.Oracle.default_deadline_ms)
    ?(schedules = Interp.Oracle.default_schedules)
    ?(seed = Interp.Oracle.default_seed) () : result =
  Support.Trace.with_span ~cat:"oracle" "oracle.sweep" @@ fun () ->
  let corpus =
    List.map (fun (e : Corpus.entry) -> (e.Corpus.id, e.Corpus.source)) Corpus.all_bugs
  in
  let mutant_list =
    if mutants then List.concat_map mutant_targets Corpus.all_bugs else []
  in
  let targets = corpus @ mutant_list in
  let verdicts =
    Support.Domain_pool.try_map ?domains
      ~f:(sweep_one ~fuel ~deadline_ms ~schedules ~seed)
      targets
  in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.replace acc (Interp.Machine.class_name c)
        {
          agree_pos = 0;
          agree_neg = 0;
          static_only = 0;
          dynamic_only = 0;
          inconclusive = 0;
        })
    Interp.Machine.all_classes;
  let bump cls f =
    let r = Hashtbl.find acc cls in
    Hashtbl.replace acc cls (f r)
  in
  let degraded = ref [] and escaped = ref 0 in
  (* fold sequentially in target order: deterministic counts *)
  List.iter2
    (fun (id, _) v ->
      match v with
      | Error _ ->
          (* an exception escaped [sweep_one]'s own isolation — the
             invariant the tests pin to zero *)
          incr escaped;
          degraded := id :: !degraded
      | Ok (Error msg) ->
          ignore msg;
          degraded := id :: !degraded
      | Ok (Ok (_, per_class)) ->
          List.iter2
            (fun c (fired, verdict) ->
              let cls = Interp.Machine.class_name c in
              match (verdict : Interp.Oracle.verdict) with
              | Interp.Oracle.Trap _ ->
                  if fired then bump cls (fun r -> { r with agree_pos = r.agree_pos + 1 })
                  else bump cls (fun r -> { r with dynamic_only = r.dynamic_only + 1 })
              | Interp.Oracle.Clean ->
                  if fired then bump cls (fun r -> { r with static_only = r.static_only + 1 })
                  else bump cls (fun r -> { r with agree_neg = r.agree_neg + 1 })
              | Interp.Oracle.Inconclusive _ ->
                  bump cls (fun r -> { r with inconclusive = r.inconclusive + 1 }))
            Interp.Machine.all_classes per_class)
    targets verdicts;
  {
    rows =
      List.map
        (fun c ->
          let n = Interp.Machine.class_name c in
          (n, Hashtbl.find acc n))
        Interp.Machine.all_classes;
    programs = List.length corpus;
    mutants = List.length mutant_list;
    degraded = List.rev !degraded;
    escaped = !escaped;
  }

(* ---------------- rendering ----------------------------------------- *)

let render (r : result) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Oracle vs detectors (differential validation)\n";
  Buffer.add_string b
    (Printf.sprintf
       "  %d corpus program(s), %d mutant(s), %d degraded, %d escaped\n"
       r.programs r.mutants
       (List.length r.degraded)
       r.escaped);
  Buffer.add_string b
    (Printf.sprintf "  %-12s %9s %9s %11s %12s %12s\n" "class" "agree+"
       "agree-" "static-only" "dynamic-only" "inconclusive");
  List.iter
    (fun (cls, row) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %9d %9d %11d %12d %12d\n" cls row.agree_pos
           row.agree_neg row.static_only row.dynamic_only row.inconclusive))
    r.rows;
  Buffer.contents b
