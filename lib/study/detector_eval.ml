(** §7 detector evaluation: run the two paper detectors over the
    latest-version target corpus and count true bugs vs false
    positives. The paper reports UAF 4 bugs / 3 FPs and double-lock 6
    bugs / 0 FPs. *)

type result = {
  uaf_bugs : int;
  uaf_false_positives : int;
  dl_bugs : int;
  dl_false_positives : int;
  missed : string list;
  degraded : string list;
      (** targets whose analysis degraded (frontend recovery, fuel
          exhaustion) or failed outright; their verdicts count as
          "no finding" *)
}

(* Per-target detector verdicts: the parallelisable part. One shared
   analysis context per target, so both detectors reuse the same alias
   and points-to results. [Error msg] means the target could not be
   loaded at all; [Ok (uaf, dl, degraded)] carries the verdicts plus
   whether the analysis was degraded. *)
let verdict (t : Corpus.Detector_targets.target) :
    (bool * bool * bool, string) Stdlib.result =
  (* the process default wall-clock budget applies here too: a
     timed-out target degrades (and counts as "no finding") instead of
     holding the evaluation hostage *)
  let deadline_ms = Support.Budget.default_deadline_ms () in
  fst @@ Support.Budget.run ?deadline_ms (fun () ->
      match
        Analysis.Cache.load_ctx_recovering
          ~file:(t.Corpus.Detector_targets.t_id ^ ".rs")
          t.Corpus.Detector_targets.t_source
      with
      | Error e -> Error (Printexc.to_string e)
      | Ok ctx -> (
          match
            ( Detectors.Uaf.run_ctx ctx <> [],
              Detectors.Double_lock.run_ctx ctx <> [] )
          with
          | exception e -> Error (Printexc.to_string e)
          | uaf, dl -> Ok (uaf, dl, Analysis.Cache.diags ctx <> [])))

let run ?domains () : result =
  let verdicts =
    Support.Domain_pool.try_map ?domains ~f:verdict
      Corpus.Detector_targets.all
  in
  let uaf_tp = ref 0
  and uaf_fp = ref 0
  and dl_tp = ref 0
  and dl_fp = ref 0
  and missed = ref []
  and degraded = ref [] in
  (* fold sequentially in corpus order so counts, [missed] and
     [degraded] are deterministic regardless of pool size *)
  List.iter2
    (fun (t : Corpus.Detector_targets.target) v ->
      let id = t.Corpus.Detector_targets.t_id in
      let uaf, dl =
        match v with
        | Ok (Ok (uaf, dl, deg)) ->
            if deg then degraded := id :: !degraded;
            (uaf, dl)
        | Ok (Error _) | Error _ ->
            (* isolated per-target failure: no verdict, keep going *)
            degraded := id :: !degraded;
            (false, false)
      in
      match t.Corpus.Detector_targets.t_expect with
      | `True_bug Detectors.Report.Use_after_free ->
          if uaf then incr uaf_tp else missed := id :: !missed
      | `True_bug Detectors.Report.Double_lock ->
          if dl then incr dl_tp else missed := id :: !missed
      | `True_bug _ -> ()
      | `False_positive -> if uaf then incr uaf_fp
      | `Clean -> if dl then incr dl_fp)
    Corpus.Detector_targets.all verdicts;
  {
    uaf_bugs = !uaf_tp;
    uaf_false_positives = !uaf_fp;
    dl_bugs = !dl_tp;
    dl_false_positives = !dl_fp;
    missed = List.rev !missed;
    degraded = List.rev !degraded;
  }

let render (r : result) : string =
  "Detector evaluation (7): previously-unknown bugs in the \
   latest-version corpus.\n"
  ^ Render.table
      ~header:[ "Detector"; "Bugs found"; "False positives" ]
      [
        [ "use-after-free"; string_of_int r.uaf_bugs; string_of_int r.uaf_false_positives ];
        [ "double-lock"; string_of_int r.dl_bugs; string_of_int r.dl_false_positives ];
      ]
  ^ (if r.missed = [] then ""
     else "missed: " ^ String.concat ", " r.missed ^ "\n")
  ^ (if r.degraded = [] then ""
     else "degraded: " ^ String.concat ", " r.degraded ^ "\n")
