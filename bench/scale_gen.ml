(** Seeded synthetic-program generator for the interprocedural
    scaling benches.

    Emits RustLite crates of [n] free functions wired into one of
    three call-graph shapes — a deep [Chain], a branching [Diamond]
    (heap-layout tree) and an [Scc]-heavy chain of mutually recursive
    groups. Every function takes a lock and a raw pointer
    ([m: Arc<Mutex<u64>>, p: *const u8]) and forwards both to its
    callees; sinks acquire the lock and dereference the pointer, so
    both the double-lock and the use-after-free deref summaries
    propagate over the whole graph.

    Function names carry a seeded random hex prefix: [Mir.body_list]
    iterates bodies in [fn_id] order, so the prefix decorrelates a
    whole-program round-robin fixpoint's iteration order from the call
    direction — its worst case, and exactly what the SCC-condensed
    bottom-up schedule is immune to.
    All randomness flows from the explicit seed (splitmix64), so every
    program is reproducible from [(shape, n, seed)]. *)

type shape = Chain | Diamond | Scc

let shape_name = function
  | Chain -> "chain"
  | Diamond -> "diamond"
  | Scc -> "scc"

(* members per mutually-recursive group of the [Scc] shape: small
   enough that a 10k-function program still has thousands of
   components, large enough that the in-SCC fixpoint is exercised *)
let scc_group = 5

let hex8 r =
  Printf.sprintf "%08Lx"
    (Int64.logand (Rustudy.Fault.next_int64 r) 0xFFFFFFFFL)

(* node -> callee indices *)
let edges shape n i =
  match shape with
  | Chain -> if i + 1 < n then [ i + 1 ] else []
  | Diamond ->
      List.filter (fun c -> c < n) [ (2 * i) + 1; (2 * i) + 2 ]
  | Scc ->
      let g = i / scc_group in
      let first = g * scc_group in
      let last = min n (first + scc_group) - 1 in
      let cycle =
        (* next member, wrapping: every group is one big cycle *)
        if last = first then [] else [ (if i = last then first else i + 1) ]
      in
      (* the group's first member bridges to the next group *)
      if i = first && last + 1 < n then (last + 1) :: cycle else cycle

let program ~seed ~shape ~n : string =
  let r = Rustudy.Fault.rng seed in
  let names = Array.init n (fun i -> Printf.sprintf "f%s_%d" (hex8 r) i) in
  let buf = Buffer.create (n * 160) in
  for i = 0 to n - 1 do
    let callees = edges shape n i in
    (* Only the sinks (plus the last node, so the all-cycles [Scc]
       shape has one too) acquire the lock and dereference the
       pointer: every other function learns both facts purely through
       its callees' summaries, which is what makes propagation depth —
       the thing the bottom-up schedule collapses and whole-program
       rounds pay for — proportional to program size. Facts are kept
       off the interior on purpose; direct sources sprinkled along the
       way would let such rounds converge in a handful of passes and
       measure nothing. *)
    let source = callees = [] || i = n - 1 in
    Buffer.add_string buf
      (Printf.sprintf "pub unsafe fn %s(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {\n"
         names.(i));
    List.iteri
      (fun k c ->
        Buffer.add_string buf
          (Printf.sprintf "    let v%d = %s(m, p);\n" k names.(c)))
      callees;
    if source then begin
      Buffer.add_string buf "    let g = m.lock().unwrap();\n";
      Buffer.add_string buf "    let x = *p;\n    x\n"
    end
    else Buffer.add_string buf "    v0\n";
    Buffer.add_string buf "}\n"
  done;
  Buffer.contents buf
