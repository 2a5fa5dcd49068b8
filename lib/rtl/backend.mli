(** Emission backends behind one interface: SystemVerilog ({!Sv_emit},
    the default) and Verilog-2001 ({!V2001_emit}). Both share
    {!Emit_core}'s deterministic naming and module structure, so the
    outputs differ only in dialect keywords. *)

type kind = Sv | V2001

val to_string : kind -> string

(** All backends as [(name, kind)], for choice parsing and docs. *)
val all_kinds : (string * kind) list

(** Parse a backend name; errors carry did-you-mean suggestions in the
    standard registry shape (see {!Diag.Choice.parse}). *)
val of_string : string -> (kind, string) result

(** ["sv"] for SystemVerilog, ["v"] for Verilog-2001. *)
val file_ext : kind -> string

val emit : kind -> Netlist.t -> string
