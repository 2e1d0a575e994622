(** Budgeted attempts; see budget.mli. *)

let run ?deadline_ms ?fuel f =
  let g () =
    let v = f () in
    (v, Deadline.expired (Deadline.token ()))
  in
  let g =
    match fuel with None -> g | Some n -> fun () -> Fuel.with_domain_budget n g
  in
  match deadline_ms with
  | None -> g ()
  | Some ms -> Deadline.with_deadline_ms ms g

let default_deadline_ms () =
  match Deadline.get_default_ms () with 0 -> None | ms -> Some ms
