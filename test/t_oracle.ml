(* The dynamic oracle: trap manifestation per bug class, budget
   degradation to explicit inconclusive verdicts, seed determinism,
   budget hygiene, and the corpus-wide differential harness's
   zero-escaping-exceptions invariant. *)

module Machine = Rustudy.Machine
module Oracle = Rustudy.Oracle

let case name f = Alcotest.test_case name `Quick f

let oracle ?fuel ?deadline_ms ?schedules ?seed src =
  Oracle.run ?fuel ?deadline_ms ?schedules ?seed
    (Rustudy.load ~file:"oracle_test.rs" src)

let verdict_of cls (r : Oracle.t) =
  Oracle.verdict_name (List.assoc cls r.Oracle.verdicts)

let has_code code (r : Oracle.t) =
  List.exists (fun (d : Rustudy.Diag.t) -> d.Rustudy.Diag.code = code) r.Oracle.diags

(* ---------------- per-class traps ----------------------------------- *)

let trap_cases =
  [
    ( "use-after-free traps",
      Machine.Uaf,
      {|
fn main() {
    let b = Box::new(41);
    drop(b);
    let x = *b;
    println!("{}", x);
}
|} );
    ( "double free traps",
      Machine.Double_free,
      {|
fn main() {
    let b = Box::new(1);
    drop(b);
    drop(b);
}
|} );
    ( "uninit read traps",
      Machine.Uninit_read,
      {|
fn main() {
    let mut v: Vec<i32> = Vec::with_capacity(4);
    unsafe { v.set_len(3); }
    let x = v[1];
    println!("{}", x);
}
|} );
    ( "null deref traps",
      Machine.Null_deref,
      {|
fn main() {
    let p: *const i32 = 0 as *const i32;
    unsafe { let x = *p; println!("{}", x); }
}
|} );
    ( "double lock traps",
      Machine.Double_lock,
      {|
use std::sync::Mutex;
fn main() {
    let m = Mutex::new(0);
    let a = m.lock().unwrap();
    let b = m.lock().unwrap();
}
|} );
  ]

let traps =
  List.map
    (fun (name, cls, src) ->
      case name (fun () ->
          let r = oracle src in
          Alcotest.(check string) "verdict" "trap" (verdict_of cls r);
          Alcotest.(check bool)
            "E0601 diag" true
            (has_code Rustudy.Diag.Oracle_trap r)))
    trap_cases
  @ [
      case "a clean program is clean in every class" (fun () ->
          let r =
            oracle
              {|
fn main() {
    let mut v = Vec::new();
    v.push(1);
    v.push(2);
    let s = v[0] + v[1];
    println!("{}", s);
}
|}
          in
          List.iter
            (fun cls ->
              Alcotest.(check string)
                (Machine.class_name cls) "clean" (verdict_of cls r))
            Machine.all_classes;
          Alcotest.(check (list string)) "no diags" []
            (List.map
               (fun (d : Rustudy.Diag.t) -> d.Rustudy.Diag.message)
               r.Oracle.diags));
      case "threaded lock program runs clean across schedules" (fun () ->
          let r =
            oracle
              {|
use std::sync::{Arc, Mutex};
use std::thread;
fn main() {
    let m = Arc::new(Mutex::new(0));
    let m2 = Arc::clone(&m);
    let h = thread::spawn(move || {
        let mut g = m2.lock().unwrap();
        *g += 1;
    });
    h.join().unwrap();
    let g = m.lock().unwrap();
    println!("{}", *g);
}
|}
          in
          Alcotest.(check bool) "multiple schedules" true (r.Oracle.schedules > 1);
          List.iter
            (fun cls ->
              Alcotest.(check string)
                (Machine.class_name cls) "clean" (verdict_of cls r))
            Machine.all_classes);
      case "library snippets without main are still driven" (fun () ->
          (* no main: the oracle synthesizes arguments and drives the
             function directly *)
          let r =
            oracle
              {|
fn double_it(x: i32) -> i32 {
    x + x
}
|}
          in
          Alcotest.(check string) "clean" "clean" (verdict_of Machine.Uaf r));
    ]

(* ---------------- budget degradation -------------------------------- *)

let looping = {|
fn main() {
    let mut i = 0;
    loop {
        i = i + 1;
    }
}
|}

let budgets =
  [
    case "fuel exhaustion degrades to inconclusive with W0602" (fun () ->
        let r = oracle ~fuel:100 looping in
        Alcotest.(check string) "verdict" "inconclusive"
          (verdict_of Machine.Uaf r);
        Alcotest.(check bool) "W0602" true (has_code Rustudy.Diag.Oracle_fuel r));
    case "deadline expiry degrades to inconclusive with W0603" (fun () ->
        let r = oracle ~fuel:max_int ~deadline_ms:30 looping in
        Alcotest.(check string) "verdict" "inconclusive"
          (verdict_of Machine.Uaf r);
        Alcotest.(check bool) "W0603" true
          (has_code Rustudy.Diag.Oracle_deadline r));
    case "unsupported constructs degrade with W0604, never trap" (fun () ->
        let r = oracle {|
fn main() {
    let x = mystery_ffi_call(7);
    println!("{}", x);
}
|} in
        Alcotest.(check string) "verdict" "inconclusive"
          (verdict_of Machine.Uaf r);
        Alcotest.(check bool) "W0604" true
          (has_code Rustudy.Diag.Oracle_unsupported r));
  ]

(* ---------------- determinism --------------------------------------- *)

let threaded = {|
use std::sync::{Arc, Mutex};
use std::thread;
fn main() {
    let c = Arc::new(Mutex::new(0));
    let c2 = Arc::clone(&c);
    let h = thread::spawn(move || {
        let mut g = c2.lock().unwrap();
        *g += 1;
    });
    let mut g = c.lock().unwrap();
    *g += 10;
    drop(g);
    h.join().unwrap();
}
|}

let determinism =
  [
    case "same seed and budgets give byte-identical verdicts" (fun () ->
        let a = oracle ~seed:42 ~schedules:4 threaded in
        let b = oracle ~seed:42 ~schedules:4 threaded in
        Alcotest.(check string) "render" (Oracle.render a) (Oracle.render b);
        Alcotest.(check (list string))
          "diags"
          (List.map (fun (d : Rustudy.Diag.t) -> d.Rustudy.Diag.message) a.Oracle.diags)
          (List.map (fun (d : Rustudy.Diag.t) -> d.Rustudy.Diag.message) b.Oracle.diags));
    case "differential harness is pool-size independent" (fun () ->
        let a = Rustudy.Oracle_eval.run ~domains:1 () in
        let b = Rustudy.Oracle_eval.run ~domains:4 () in
        Alcotest.(check string)
          "render"
          (Rustudy.Oracle_eval.render a)
          (Rustudy.Oracle_eval.render b));
  ]

(* ---------------- budget hygiene ------------------------------------ *)

let hygiene =
  [
    case "a fuel-exhausted oracle run leaves later checks byte-identical"
      (fun () ->
        let entry = List.hd Rustudy.Corpus.all_bugs in
        let file = entry.Rustudy.Corpus.id ^ ".rs" in
        let render r =
          match r with
          | Ok (findings, diags) ->
              String.concat "\n"
                (List.map Rustudy.Finding.to_string findings
                @ List.map Rustudy.Diag.to_string diags)
          | Error e -> "error:" ^ e
        in
        let before =
          render (Rustudy.check_result ~file entry.Rustudy.Corpus.source)
        in
        (* exhaust the oracle's budgets mid-sweep *)
        ignore (oracle ~fuel:10 ~deadline_ms:1 looping);
        Alcotest.(check bool) "no ambient deadline leaks" true
          (Rustudy.Deadline.current () = None);
        let after =
          render (Rustudy.check_result ~file entry.Rustudy.Corpus.source)
        in
        Alcotest.(check string) "byte-identical check" before after);
    case "a sweep restores the caller's deadline and fuel scopes" (fun () ->
        Rustudy.Deadline.with_deadline_ms 60_000 (fun () ->
            Rustudy.Fuel.with_domain_budget 5_000 (fun () ->
                let outer = Rustudy.Deadline.current () in
                ignore (Rustudy.Oracle_eval.run ~domains:1 ());
                Alcotest.(check bool)
                  "deadline still in place" true
                  (Rustudy.Deadline.current () = outer);
                Alcotest.(check (option int))
                  "fuel override still in place" (Some 5_000)
                  (Rustudy.Fuel.domain_budget ()))));
  ]

(* ---------------- the differential harness -------------------------- *)

let differential =
  [
    case "corpus sweep: zero escaping exceptions, all pairs classified"
      (fun () ->
        let r = Rustudy.Oracle_eval.run () in
        Alcotest.(check int) "escaped" 0 r.Rustudy.Oracle_eval.escaped;
        Alcotest.(check (list string)) "degraded" [] r.Rustudy.Oracle_eval.degraded;
        Alcotest.(check int)
          "programs" (List.length Rustudy.Corpus.all_bugs)
          r.Rustudy.Oracle_eval.programs;
        (* every (program, class) pair lands in exactly one cell *)
        List.iter
          (fun (cls, row) ->
            Alcotest.(check int)
              ("pairs for " ^ cls)
              r.Rustudy.Oracle_eval.programs
              (row.Rustudy.Oracle_eval.agree_pos
              + row.Rustudy.Oracle_eval.agree_neg
              + row.Rustudy.Oracle_eval.static_only
              + row.Rustudy.Oracle_eval.dynamic_only
              + row.Rustudy.Oracle_eval.inconclusive))
          r.Rustudy.Oracle_eval.rows);
    case "mutant sweep covers the full 1020-mutant suite and never throws"
      (fun () ->
        let r = Rustudy.Oracle_eval.run ~mutants:true () in
        Alcotest.(check int) "escaped" 0 r.Rustudy.Oracle_eval.escaped;
        Alcotest.(check bool)
          "at least the 1020 recovery mutants" true
          (r.Rustudy.Oracle_eval.mutants >= 1020);
        (* the trap-aiming mutators manifest bugs the static detectors
           never reported: the dynamic-only column is non-empty *)
        let dyn_only =
          List.fold_left
            (fun acc (_, row) -> acc + row.Rustudy.Oracle_eval.dynamic_only)
            0 r.Rustudy.Oracle_eval.rows
        in
        Alcotest.(check bool) "dynamic-only findings exist" true (dyn_only > 0));
    case "trap mutators produce oracle traps on injected sources" (fun () ->
        (* Inject_free inserts an early drop before a later use: the
           oracle must manifest it as a uaf/double-free trap on at
           least one corpus entry, with no escaping exceptions *)
        let trapped = ref 0 in
        List.iter
          (fun (e : Rustudy.Corpus.entry) ->
            List.iter
              (fun (_, src) ->
                match
                  Analysis.Cache.load_ctx_recovering ~cache:false
                    ~file:(e.Rustudy.Corpus.id ^ "-trap.rs") src
                with
                | Error _ -> ()
                | Ok ctx ->
                    let r =
                      Oracle.run (Analysis.Cache.program ctx)
                    in
                    if
                      List.exists
                        (fun (_, v) ->
                          match v with Oracle.Trap _ -> true | _ -> false)
                        r.Oracle.verdicts
                    then incr trapped)
              (Rustudy.Fault.trap_mutations ~seed:0x5EED
                 e.Rustudy.Corpus.source))
          Rustudy.Corpus.all_bugs;
        Alcotest.(check bool) "some injected trap manifests" true (!trapped > 0));
  ]

let suite = traps @ budgets @ determinism @ hygiene @ differential
