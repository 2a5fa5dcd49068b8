(** Typed AST: the output of {!Typecheck} and the input to both the reference
   interpreter ({!Interp}) and the Longnail IR lowering.

   Every expression carries its resolved CoreDSL type. All implicit
   conversions have been made explicit as [T_cast] nodes, so consumers can
   rely on operand types matching the {!Bitvec} operator algebra exactly. *)

type texpr = {
  te : texpr_node;
  tty : Bitvec.ty;
  tloc : Ast.loc;
}
and texpr_node =
    T_lit of Bitvec.t
  | T_local of string
  | T_field of string
  | T_reg of string
  | T_regfile of string * texpr
  | T_rom of string * texpr
  | T_mem of { space : string; addr : texpr; elems : int; }
  | T_binop of Ast.binop * texpr * texpr
  | T_unop of Ast.unop * texpr
  | T_cast of texpr
  | T_concat of texpr * texpr
  | T_extract of { value : texpr; lo : texpr; width : int; }
  | T_ternary of texpr * texpr * texpr
  | T_call of string * texpr list
type tstmt = { ts : tstmt_node; tsloc : Ast.loc; }
and tstmt_node =
    S_local_decl of string * Bitvec.ty * texpr option
  | S_assign_local of string * texpr
  | S_assign_reg of string * texpr
  | S_assign_regfile of string * texpr * texpr
  | S_assign_mem of { space : string; addr : texpr; value : texpr;
      elems : int;
    }
  | S_if of texpr * tstmt list * tstmt list
  | S_for of { init : tstmt list; cond : texpr; step : tstmt list;
      body : tstmt list;
    }
  | S_spawn of tstmt list
  | S_return of texpr option
  | S_expr of texpr
type tfunc = {
  tf_name : string;
  tf_ret : Bitvec.ty option;
  tf_params : (string * Bitvec.ty) list;
  tf_body : tstmt list;
}
type field_segment = { instr_lo : int; fld_lo : int; seg_len : int; }
type field_info = {
  fld_name : string;
  fld_width : int;
  segments : field_segment list;
}
type tinstr = {
  ti_name : string;
  enc_width : int;
  mask : Bitvec.t;
  match_bits : Bitvec.t;
  fields : field_info list;
  ti_behavior : tstmt list;
}
type talways = { ta_name : string; ta_body : tstmt list; }
type tunit = {
  tu_name : string;
  elab : Elaborate.elaborated;
  tinstrs : tinstr list;
  talways : talways list;
  tfuncs : tfunc list;
}
val generated_local : string -> int -> string
(** [generated_local base n] is ["base#N"], a local name no CoreDSL
    identifier can spell. A local's name ([T_local], [S_local_decl],
    [S_assign_local]) is its source name, except that {!Typecheck} gives
    a declaration shadowing a visible local, and a [switch]'s scrutinee
    snapshot, a generated name: within one body, each name denotes
    exactly one variable. *)

val source_name : string -> string
(** The source name of a local: ["x#2"] and ["x"] are both ["x"]. *)

val find_field : tinstr -> string -> field_info option
val find_tfunc : tunit -> string -> tfunc option
val find_tinstr : tunit -> string -> tinstr option
val contains_spawn : tstmt list -> bool
val pp_texpr : Format.formatter -> texpr -> unit
val binop_name : Ast.binop -> string
