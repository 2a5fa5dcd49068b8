(** Optimization passes over lil graphs: constant folding (canonicalization),
   common-subexpression elimination, and dead-code elimination. These mirror
   MLIR's canonicalization infrastructure the paper relies on ("constant
   registers are internalized into the ISAX module and subject to MLIR's
   usual canonicalization patterns"). *)

val has_side_effect : Mir.op -> bool
val is_interface_read : Mir.op -> bool
val fold_constants : Mir.graph -> Mir.graph
(** Folds comb ops over constants and muxes on a constant condition.
    Returns its argument itself ([==]) when nothing folds. *)

val cse : Mir.graph -> Mir.graph
(** Merges pure ops that agree on opname, operands, attributes and result
    types; a constant attribute compares by width and bit pattern. Returns
    its argument itself ([==]) when nothing merges. *)

val dce : Mir.graph -> Mir.graph

val dce_interface_reads : Mir.graph -> Mir.graph
(** Drops top-level interface reads none of whose results any op uses
    (nested ops count). Returns its argument itself ([==]) when nothing
    is dropped. *)

val lower_constant_shifts : Mir.graph -> Mir.graph

(** {2 Instrumented pass manager} *)

type pass = { pass_name : string; pass_fn : Mir.graph -> Mir.graph }

val all_passes : pass list
(** Every registered optimization pass, in canonical order. *)

val find_pass : string -> pass
(** Look a pass up by name; raises [Not_found] on unknown names. *)

val op_count : Mir.graph -> int
(** Number of operations, including region bodies. *)

val edge_count : Mir.graph -> int
(** Number of def-use edges (operand references). *)

(** Before/after IR sizes of one pass execution. *)
type pass_stat = {
  ps_pass : string;
  ps_ops_before : int;
  ps_ops_after : int;
  ps_edges_before : int;
  ps_edges_after : int;
}

val run_pass : ?obs:Obs.scope -> pass -> Mir.graph -> Mir.graph * pass_stat
(** Run one pass; with [obs] set, records a ["pass:NAME"] span with
    before/after op- and edge-counts. *)

val optimize_with_stats :
  ?obs:Obs.scope ->
  ?verify_each:(pass_name:string -> Mir.graph -> unit) ->
  ?fold_rounds:int ->
  Mir.graph ->
  Mir.graph * pass_stat list
(** The standard pipeline (fold + shift lowering, fold/cse to fixpoint
    bounded by [fold_rounds], then DCE), returning the per-pass trace in
    execution order. A fold/cse round reaches the fixpoint when both passes
    return the graph they were given ([==]); no graph is printed or
    compared. With [obs] set, also records ["pass:*"] spans plus a
    ["fold_rounds"] rounds-to-fixpoint metric on the enclosing span. With
    [verify_each] set, the callback runs on the result of every pass
    execution (the [--verify-each] sanitizer hook) and may raise to abort
    the pipeline, naming the offending pass. *)

val optimize :
  ?obs:Obs.scope ->
  ?verify_each:(pass_name:string -> Mir.graph -> unit) ->
  ?fold_rounds:int ->
  Mir.graph ->
  Mir.graph
