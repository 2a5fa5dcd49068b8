(** Elaboration of CoreDSL descriptions.

   Resolves imports, flattens InstructionSet inheritance chains into the
   providing Core (or a stand-alone set), evaluates ISA parameters, and
   resolves the architectural state into concrete registers, register files,
   ROMs and address spaces with fixed widths. The result is the input to
   {!Typecheck}. *)

module Bn = Bitvec.Bn
exception Elab_error of Diag.t
val elab_error :
  ?code:string -> Ast.loc -> ('a, Format.formatter, unit, 'b) format4 -> 'a
val type_width : Bitvec.t -> int option
(** The width a type or cast declares, if the value is one: 1 to
    {!Ast.max_width} bits. *)

type cenv = { vars : (string * Bitvec.t) list; }
val const_eval : cenv -> Ast.expr -> Bitvec.t
(** Raises {!Elab_error} E0204 when [e] is not a constant expression or
    its evaluation fails (a bad cast width, division by zero, ...). *)

val const_eval_opt : cenv -> Ast.expr -> Bitvec.t option
(** [None] only when [e] is not a constant expression at all; a failing
    evaluation raises as in {!const_eval}. *)

val const_binop :
  Ast.loc ->
  Ast.binop -> Bitvec.t -> Bitvec.t -> Bitvec.t
val resolve_ty :
  cenv -> Ast.loc -> Ast.ty_expr -> Bitvec.ty
type reg = {
  rname : string;
  rty : Bitvec.ty;
  elems : int;
  is_pc : bool;
  rconst : bool;
  rinit : Bitvec.t array option;
}
type addr_space = {
  sname : string;
  elem_ty : Bitvec.ty;
  space_size : Ast.Bn.t;
  is_main_mem : bool;
}
type elaborated = {
  ename : string;
  params : (string * Bitvec.t) list;
  regs : reg list;
  spaces : addr_space list;
  instructions : Ast.instruction list;
  always : Ast.always_block list;
  functions : Ast.func list;
  digest : string;
      (** The unit's content key: 32 hex characters of MD5 over the target
          name, the main source text and every import's path and text,
          length-prefixed, in load order. The main file's name is not
          part of it. The artifact caches key every stage by it. *)
}
val find_reg : elaborated -> string -> reg option
val find_space : elaborated -> string -> addr_space option
val pc_reg : elaborated -> reg option
val main_mem : elaborated -> addr_space option
type provider = string -> string option
val elaborate :
  ?diags:Diag.collector ->
  ?provider:provider -> ?file:string -> target:string -> string -> elaborated
