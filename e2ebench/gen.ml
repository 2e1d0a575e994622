(** Labelled synthetic programs for the [interproc-10k] workload.

    The call graph is [bench/scale_gen.ml]'s, verbatim: [n] functions
    in a [Chain], [Diamond] or [Scc] shape, where only the sinks lock
    [m] and dereference [p], so the facts reach the top purely through
    callee summaries. On top of it an optional root caller, which calls
    function 0, injects one bug whose class and site are known by
    construction:
    - [Double_lock]: the root holds a guard on [m] across its call into
      the graph, and every path below it locks [m] again;
    - [Use_after_free]: the root passes a pointer to a block-scoped
      local, dead by the time of the call, down to the sinks' [*p].

    The bug-free root ([Clean]) forwards its own parameters, so the
    program must report no issues at all. *)

type bug = Clean | Double_lock | Use_after_free

let shapes = Scale_gen.[ Chain; Diamond; Scc ]

let bug_name = function
  | Clean -> "clean"
  | Double_lock -> "double-lock"
  | Use_after_free -> "use-after-free"

type t = {
  shape : Scale_gen.shape;
  bug : bug;
  root : string;  (** name of the root caller, the injected bug's site *)
  root_text : string;
  fns : string array;  (** [Scale_gen.program]'s functions, one text each *)
}

(* [Scale_gen.program] is a sequence of functions, each closed by a
   ["}"] line of its own *)
let split_fns text =
  let fns = ref [] and cur = Buffer.create 160 in
  List.iter
    (fun l ->
      Buffer.add_string cur l;
      Buffer.add_char cur '\n';
      if l = "}" then begin
        fns := Buffer.contents cur :: !fns;
        Buffer.clear cur
      end)
    (String.split_on_char '\n' text);
  Array.of_list (List.rev !fns)

(* "pub unsafe fn NAME(..." -> NAME *)
let fn_name text =
  let start = String.length "pub unsafe fn " in
  String.sub text start (String.index text '(' - start)

let make ~seed ~shape ~n ~bug =
  let fns = split_fns (Scale_gen.program ~seed ~shape ~n) in
  let root = "root" ^ Scale_gen.hex8 (Rustudy.Fault.rng (lnot seed)) in
  let call = Printf.sprintf "    let v0 = %s(m, p);\n    v0\n}\n" (fn_name fns.(0)) in
  let root_text =
    match bug with
    | Clean ->
        Printf.sprintf "pub unsafe fn %s(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {\n%s"
          root call
    | Double_lock ->
        Printf.sprintf
          "pub unsafe fn %s(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {\n\
          \    let g = m.lock().unwrap();\n%s"
          root call
    | Use_after_free ->
        Printf.sprintf
          "pub unsafe fn %s(m: Arc<Mutex<u64>>) -> u8 {\n\
          \    let p: *const u8;\n\
          \    {\n\
          \        let x: u8 = 7;\n\
          \        p = &x as *const u8;\n\
          \    }\n%s"
          root call
  in
  { shape; bug; root; root_text; fns }

(** Functions an edit can touch: the interior ones, which return their
    local [v0]. *)
let editable t i = List.mem "    v0" (String.split_on_char '\n' t.fns.(i))

(* rename local [v0] to [v0e]: the body's digest changes, its meaning
   does not *)
let edit_fn text =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         if l = "    v0" then "    v0e"
         else if String.starts_with ~prefix:"    let v0 = " l then
           "    let v0e = " ^ String.sub l 13 (String.length l - 13)
         else l)
  |> String.concat "\n"

(** The whole crate; with [?edit], function [edit] has its local [v0]
    renamed. The root comes first, so the injected finding's line
    numbers do not depend on the edit. *)
let source ?edit t =
  let b = Buffer.create (Array.length t.fns * 160) in
  Buffer.add_string b t.root_text;
  Array.iteri (fun i f -> Buffer.add_string b (if Some i = edit then edit_fn f else f)) t.fns;
  Buffer.contents b

(** Seeded edit sites: each call draws an {!editable} function not
    drawn before, uniformly; [None] once all have been drawn. *)
let edit_sites ~seed t =
  let r = Rustudy.Fault.rng seed in
  let left =
    Array.of_list (List.filter (editable t) (List.init (Array.length t.fns) Fun.id))
  in
  let n = ref (Array.length left) in
  fun () ->
    if !n = 0 then None
    else begin
      let k = Rustudy.Fault.next_int r !n in
      let i = left.(k) in
      decr n;
      left.(k) <- left.(!n);
      Some i
    end

(** The verdict a correct checker gives: the single finding's prefix,
    or [None] for a bug-free program. *)
let expected_prefix t =
  match t.bug with
  | Clean -> None
  | Double_lock -> Some (Printf.sprintf "[double-lock] bug in `%s` at " t.root)
  | Use_after_free ->
      Some (Printf.sprintf "[use-after-free] bug in `%s` at " t.root)
