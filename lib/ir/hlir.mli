(** Lowering from the typed CoreDSL AST to the high-level IR (Figure 5b).

   The output is a flat SSA graph per instruction / always-block mixing the
   [coredsl] dialect (state access, bit manipulation, fields) with the
   [hwarith] dialect (bitwidth-aware arithmetic). On the way down we
   perform, like the paper's "pre-HLS upstream utilities":
   - full loop unrolling (loops must have compile-time trip counts),
   - function inlining,
   - if-conversion: branches become predicated state writes and muxes,
   - SSA construction for mutable locals,
   - merging of multiple writes to one architectural state element into a
     single predicated write (each SCAIE-V sub-interface may be used at
     most once per instruction).

   Ops lowered inside a spawn-block are tagged with the [spawn] attribute,
   mirroring Longnail's flattening with provenance markers (Section 4.1c). *)

module Bn = Bitvec.Bn
exception Lower_error of Diag.t
val lower_error : ?span:Diag.span -> ('a, Format.formatter, unit, 'b) format4 -> 'a
val u : int -> Bitvec.ty
val bool_ty : Bitvec.ty
type pending = {
  p_operands : Mir.value list;
  p_pred : Mir.value option;
  p_spawn : bool;
  p_elems : int;
  p_loc : Diag.span option;
}
type env = {
  b : Mir.builder;
  tu : Coredsl.Tast.tunit;
  mutable locals : (string * (Mir.value * int)) list;
  mutable consts : (string * Bitvec.t) list;
  mutable fields : (string * Mir.value) list;
  mutable reg_cur : (string * Mir.value) list;
  mutable pend_reg : (string * pending) list;
  mutable pend_rf : (string * pending) list;
  mutable pend_mem : (string * pending) list;
  mutable preds : Mir.value list;
  mutable in_spawn : bool;
  mutable ret : (Mir.value option * Mir.value option) option;
}
val conj : env -> Mir.value list -> Mir.value option
val bool_and_fwd : env -> Mir.value -> Mir.value -> Mir.value
val current_pred : env -> Mir.value option
val constant : env -> Bitvec.t -> Mir.value
val bool_and : env -> Mir.value -> Mir.value -> Mir.value
val bool_or : env -> Mir.value -> Mir.value -> Mir.value
val bool_not : env -> Mir.value -> Mir.value
val mux : env -> Mir.value -> Mir.value -> Mir.value -> Mir.value
val merge_pending :
  env ->
  pending option ->
  Mir.value list -> Mir.value option -> bool -> int -> pending
val try_const : env -> Coredsl.Tast.texpr -> Bitvec.t option
val spawn_attr : env -> (string * Mir.attr) list
val to_bool : env -> Mir.value -> Mir.value
val lower_expr : env -> Coredsl.Tast.texpr -> Mir.value
val lower_binop :
  env ->
  Coredsl.Tast.texpr ->
  Coredsl.Ast.binop ->
  Coredsl.Tast.texpr -> Coredsl.Tast.texpr -> Mir.value
val inline_call : env -> string -> Mir.value list -> Mir.value option
val assign_local : env -> string -> Mir.value -> Bitvec.t option -> unit
val lower_stmt : env -> Coredsl.Tast.tstmt -> unit
val lower_stmts : env -> Coredsl.Tast.tstmt list -> unit
val flush_pending : env -> unit
val fresh_env : Coredsl.Tast.tunit -> Mir.builder -> env
val lower_instruction :
  Coredsl.Tast.tunit -> Coredsl.Tast.tinstr -> Mir.graph
val lower_always : Coredsl.Tast.tunit -> Coredsl.Tast.talways -> Mir.graph
