(** Dialect-aware structural verifier for the mini-MLIR IR.

    The only IR verifier: every op is checked against a per-dialect
    signature registry (operand arity, operand/result width rules,
    required attributes and their kinds, region and terminator
    invariants) on top of the SSA discipline (single definition,
    definition before use, operand types matching the defining result).

    Dialect levels (see docs/ANALYSIS.md):
    - [`Hlir]: the Figure 5b form — [coredsl] + [hwarith] + [hw.constant].
    - [`Lil]: the Figure 5c CDFG — [lil] + [comb] + [hw.constant],
      terminated by exactly one [lil.sink] as the last op of the body.
    - [`Any]: infer the level from the ops present ([lil]/[comb] ops make
      the graph a lil graph, otherwise it is checked as HLIR).

    Codes: malformed ops (unknown op, wrong arity/widths/attributes,
    unexpected region, terminator violations) are E0510; SSA violations
    (use before def, double definition, operand/definition type mismatch)
    are E0511. *)

type level = [ `Hlir | `Lil | `Any ]

exception Verify_error of Diag.t

val describe_op : Ir.Mir.op -> string
(** One-line rendering of an op — name, id, operand and result types —
    used in diagnostics notes. *)

val check : ?level:level -> Ir.Mir.graph -> Diag.t list
(** All violations found in the graph, in op order (default level
    [`Any]). An empty list means the graph is well-formed. *)

val verify : ?level:level -> Ir.Mir.graph -> unit
(** Raise {!Verify_error} with the first violation of {!check}. *)
