(* Closed-name-set parsing with did-you-mean suggestions, shared by the
   backend selector and the knob-name check (and anything else with a
   small fixed vocabulary). Mirrors the suggestion shape of
   Core_registry.resolve so "unknown core", "unknown emission backend"
   and "unknown knob" read the same way. *)

let suggest ~names s =
  let budget = max 2 (String.length s / 3) in
  names
  |> List.filter_map (fun n ->
         let d = Diag.levenshtein s n in
         if d <= budget || String.starts_with ~prefix:s n then Some (d, n) else None)
  |> List.sort compare
  |> List.filteri (fun i _ -> i < 3)
  |> List.map snd

(* [parse ~what ~choices s] resolves [s] against the closed set
   [choices]; on failure the error message lists the valid names and a
   did-you-mean hint, in the same format as Core_registry.resolve. *)
let parse ~what ~(choices : (string * 'a) list) (s : string) : ('a, string) result =
  match List.assoc_opt s choices with
  | Some v -> Ok v
  | None ->
      let names = List.map fst choices in
      let hint =
        match suggest ~names s with
        | [] -> ""
        | [ one ] -> Printf.sprintf "; did you mean '%s'?" one
        | several ->
            Printf.sprintf "; did you mean one of %s?"
              (String.concat ", " (List.map (Printf.sprintf "'%s'") several))
      in
      Error
        (Printf.sprintf "unknown %s '%s' (available: %s)%s" what s
           (String.concat ", " names) hint)
