(** Closed-name-set parsing with did-you-mean suggestions, shared by
    {!Backend.of_string} and the knob-name check of [Knob_flags.set]. Error messages
    follow the same "unknown X 'y' (available: ...); did you mean ...?"
    shape as the core registry's resolver. *)

(** Up to three closest candidates for an unknown name. *)
val suggest : names:string list -> string -> string list

val parse : what:string -> choices:(string * 'a) list -> string -> ('a, string) result
