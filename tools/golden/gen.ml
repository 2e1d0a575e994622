(* Golden snapshots of detector findings.

   [gen.exe] prints one line per (entry, finding): "<id>|<finding>",
   findings sorted per entry so the snapshot is insensitive to emission
   order (test/golden_findings.txt).

   [gen.exe interproc] prints the two summary-carrying detectors'
   findings as "<id>|<dl|uaf|uaf-noext>|<finding>" in emission order,
   over every corpus entry and every [Fault.mutations ~seed:0x5EED]
   mutant that lowers in recovery mode (test/golden_interproc.txt).
   Unsorted on purpose: it pins the summary schedule, not just the set
   of findings. *)

let all_findings () =
  List.iter
    (fun (e : Corpus.entry) ->
      let p = Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source in
      let fs =
        List.sort compare
          (List.map Detectors.Report.to_string (Detectors.All.all p))
      in
      List.iter (fun f -> Printf.printf "%s|%s\n" e.Corpus.id f) fs)
    Corpus.all_bugs

let interproc () =
  let emit id (p : Rustudy.Mir.program) =
    let out tag fs =
      List.iter
        (fun f -> Printf.printf "%s|%s|%s\n" id tag (Detectors.Report.to_string f))
        fs
    in
    out "dl" (Detectors.Double_lock.run p);
    out "uaf" (Detectors.Uaf.run ~assume_extern_derefs:true p);
    out "uaf-noext" (Detectors.Uaf.run ~assume_extern_derefs:false p)
  in
  List.iter
    (fun (e : Corpus.entry) ->
      emit e.Corpus.id
        (Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source))
    Corpus.all_bugs;
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (mname, mutated) ->
          let id = e.Corpus.id ^ "+" ^ mname in
          (* recovery mode, like the serve pipeline: malformed regions
             degrade to diagnostics and the rest still reaches MIR *)
          match
            Rustudy.Cache.load_ctx_recovering ~cache:false ~file:(id ^ ".rs")
              mutated
          with
          | Ok ctx -> emit id (Rustudy.Cache.program ctx)
          | Error _ -> ())
        (Rustudy.Fault.mutations ~seed:0x5EED e.Corpus.source))
    Corpus.all_bugs

let () =
  match Sys.argv with
  | [| _ |] -> all_findings ()
  | [| _; "interproc" |] -> interproc ()
  | _ ->
      prerr_endline "usage: gen.exe [interproc]";
      exit 2
