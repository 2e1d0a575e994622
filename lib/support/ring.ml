(** Overwrite-oldest rings and per-domain shard registries; see
    ring.mli. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable start : int;  (** index of the oldest value *)
  mutable len : int;
  mutable dropped : int;
}

let min_capacity = 16

let create n =
  { buf = Array.make (max min_capacity n) None; start = 0; len = 0; dropped = 0 }

let push r v =
  let cap = Array.length r.buf in
  if r.len < cap then begin
    r.buf.((r.start + r.len) mod cap) <- Some v;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.start) <- Some v;
    r.start <- (r.start + 1) mod cap;
    r.dropped <- r.dropped + 1
  end

let to_list r =
  let cap = Array.length r.buf in
  let out = ref [] in
  for i = r.len - 1 downto 0 do
    match r.buf.((r.start + i) mod cap) with
    | Some v -> out := v :: !out
    | None -> ()
  done;
  !out

let length r = r.len
let dropped r = r.dropped

let clear r =
  Array.fill r.buf 0 (Array.length r.buf) None;
  r.start <- 0;
  r.len <- 0;
  r.dropped <- 0

let reset_capacity r n =
  r.buf <- Array.make (max min_capacity n) None;
  r.start <- 0;
  r.len <- 0;
  r.dropped <- 0

module Shards = struct
  type 'a t = {
    lock : Mutex.t;
    shards : 'a list ref;  (** newest first *)
    key : 'a Domain.DLS.key;
  }

  let create make =
    let lock = Mutex.create () and shards = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          Mutex.protect lock (fun () ->
              let s = make (List.length !shards) in
              shards := s :: !shards;
              s))
    in
    { lock; shards; key }

  let mine reg = Domain.DLS.get reg.key
  let all reg = List.rev (Mutex.protect reg.lock (fun () -> !(reg.shards)))
end
