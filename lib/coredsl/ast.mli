(** Abstract syntax tree for the CoreDSL language (Figure 2 of the paper).

   The AST is produced by {!Parser} and consumed by {!Elaborate} and
   {!Typecheck}. Width expressions inside types are ordinary expressions and
   are only required to be compile-time constants at elaboration time, which
   lets instruction sets declare parameterized state such as
   [register unsigned<XLEN> X[32]]. *)

module Bn = Bitvec.Bn
type loc = { file : string; line : int; col : int; }
val no_loc : loc

(** Point span at this location, for building diagnostics. *)
val span_of_loc : loc -> Diag.span
type binop =
    Add
  | Sub
  | Mul
  | Div
  | Rem
  | Shl
  | Shr
  | And
  | Or
  | Xor
  | Land
  | Lor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
type unop = Neg | Not | Lnot
type cast_kind = { cast_signed : bool; cast_width : expr option; }
and ty_expr =
    Ty_int of { signed : bool; width : expr; }
  | Ty_alias of string
  | Ty_void
and expr = { e : expr_node; eloc : loc; }
and expr_node =
    Lit of { value : Bn.t; forced : Bitvec.ty option; }
  | Ident of string
  | Index of expr * expr
  | Range of expr * expr * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cast of cast_kind * expr
  | Concat of expr * expr
  | Ternary of expr * expr * expr
  | Call of string * expr list
  | Array_init of expr list
type storage = St_register | St_extern | St_param | St_const | St_local
type assign_op =
    A_eq
  | A_add
  | A_sub
  | A_mul
  | A_and
  | A_or
  | A_xor
  | A_shl
  | A_shr
type stmt = { s : stmt_node; sloc : loc; }
and stmt_node =
    Decl of { ty : ty_expr;
      decls : (string * expr option * expr option) list;
    }
  | Assign of assign_op * expr * expr
  | Incr of expr
  | Decr of expr
  | Expr_stmt of expr
  | If of expr * stmt list * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | Switch of expr * (expr option * stmt list) list
  | Spawn of stmt list
  | Return of expr option
  | Block of stmt list
type enc_elem =
    Enc_lit of Bitvec.t
  | Enc_field of { field : string; hi : int; lo : int; }
type instruction = {
  iname : string;
  encoding : enc_elem list;
  behavior : stmt list;
  iloc : loc;
}
type always_block = { aname : string; abody : stmt list; aloc : loc; }
type state_decl = {
  dname : string;
  dty : ty_expr;
  storage : storage;
  array_size : expr option;
  init : expr option;
  attrs : string list;
  dloc : loc;
}
type func = {
  fname : string;
  ret : ty_expr;
  params : (ty_expr * string) list;
  body : stmt list;
  floc : loc;
}
type isa = {
  state : state_decl list;
  instructions : instruction list;
  always : always_block list;
  functions : func list;
}
val empty_isa : isa
type instr_set = {
  set_name : string;
  extends : string option;
  set_isa : isa;
}
type core_def = {
  core_name : string;
  provides : string list;
  core_isa : isa;
}
type desc = {
  imports : (string * loc) list;  (** import path and the location of the import statement *)
  sets : instr_set list;
  cores : core_def list;
}
exception Syntax_error of loc * string
val syntax_error : loc -> ('a, Format.formatter, unit, 'b) format4 -> 'a
val max_width : int
(** The widest sized literal or declared type, in bits: 2^16, the vector
    width IEEE 1364 requires every Verilog tool to accept. *)
