(** Always-on flight recorder into per-domain ring buffers; see
    flight.mli. *)

let enabled_flag = Atomic.make true
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* The flight clock is Trace's clock: the monotonic deadline clock by
   default, the injected clock when a test installs one — so flight
   dumps are as deterministic as trace exports under injection. *)
let now_ns () = Trace.now_ns ()

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  f_ts : int64;  (** ns *)
  f_kind : string;
  f_fields : (string * string) list;
}

type shard = { dom : int; ring : event Ring.t }

let ring_capacity = Atomic.make 8192

let shards : shard Ring.Shards.t =
  Ring.Shards.create (fun dom ->
      { dom; ring = Ring.create (Atomic.get ring_capacity) })

let my_shard () = Ring.Shards.mine shards

let set_ring_capacity n =
  Atomic.set ring_capacity n;
  (* the calling domain owns its shard, so resizing it in place is
     race-free; other domains' rings keep their capacity *)
  Ring.reset_capacity (my_shard ()).ring n

let record ?(fields = []) kind =
  if Atomic.get enabled_flag then
    Ring.push (my_shard ()).ring
      { f_ts = now_ns (); f_kind = kind; f_fields = fields }

let sum f = List.fold_left (fun acc s -> acc + f s.ring) 0
let events_total () = sum Ring.length (Ring.Shards.all shards)
let dropped_total () = sum Ring.dropped (Ring.Shards.all shards)
let reset () = List.iter (fun s -> Ring.clear s.ring) (Ring.Shards.all shards)

(* ------------------------------------------------------------------ *)
(* Dump                                                                *)
(* ------------------------------------------------------------------ *)

let add_event b (dom : int) (ev : event) =
  Printf.bprintf b "{\"ts\":%Ld,\"dom\":%d,\"kind\":\"%a\"" ev.f_ts dom
    Json.escape_lossy_into ev.f_kind;
  List.iter
    (fun (k, v) ->
      Printf.bprintf b ",\"%a\":\"%a\"" Json.escape_lossy_into k
        Json.escape_lossy_into v)
    ev.f_fields;
  Buffer.add_string b "}\n"

let dump_jsonl () : string =
  let shs = Ring.Shards.all shards in
  let events =
    List.concat_map
      (fun s -> List.map (fun ev -> (s.dom, ev)) (Ring.to_list s.ring))
      shs
  in
  (* stable sort: ties on ts keep per-shard recording order *)
  let events =
    List.stable_sort
      (fun (da, (a : event)) (db, b) ->
        match Int64.compare a.f_ts b.f_ts with
        | 0 -> compare da db
        | c -> c)
      events
  in
  let n = List.length events in
  let dropped = sum Ring.dropped shs in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"kind\":\"flight.meta\",\"version\":1,\"pid\":%d,\"events\":%d,\"dropped\":%d}\n"
    (Unix.getpid ()) n dropped;
  List.iter (fun (dom, ev) -> add_event b dom ev) events;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Black box                                                           *)
(* ------------------------------------------------------------------ *)

let blackbox : string option Atomic.t = Atomic.make None
let set_blackbox p = Atomic.set blackbox p
let blackbox_path () = Atomic.get blackbox

(* write-then-rename so a reader never sees a torn dump, even when the
   writer is a signal handler racing the main program *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let write_blackbox () =
  match Atomic.get blackbox with
  | None -> None
  | Some path -> (
      match write_file path (dump_jsonl ()) with
      | () -> Some path
      | exception _ -> None)

let crash ?(reason = "") () =
  if Atomic.get enabled_flag then
    record ~fields:(if reason = "" then [] else [ ("reason", reason) ]) "crash";
  ignore (write_blackbox ())

let install_sigquit () =
  match
    Sys.set_signal Sys.sigquit
      (Sys.Signal_handle
         (fun _ ->
           record "sigquit";
           ignore (write_blackbox ())))
  with
  | () -> ()
  | exception _ -> ()
