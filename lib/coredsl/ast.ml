(* Abstract syntax tree for the CoreDSL language (Figure 2 of the paper).

   The AST is produced by {!Parser} and consumed by {!Elaborate} and
   {!Typecheck}. Width expressions inside types are ordinary expressions and
   are only required to be compile-time constants at elaboration time, which
   lets instruction sets declare parameterized state such as
   [register unsigned<XLEN> X[32]]. *)

module Bn = Bitvec.Bn

type loc = { file : string; line : int; col : int }

let no_loc = { file = "<builtin>"; line = 0; col = 0 }

(* Bridge into the diagnostics subsystem: a point span at this location. *)
let span_of_loc l = Diag.point ~file:l.file ~line:l.line ~col:l.col

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | And | Or | Xor
  | Land | Lor
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Not | Lnot

(* (signed) e / (unsigned<5>) e / (unsigned) e / (signed<16>) e *)
type cast_kind = { cast_signed : bool; cast_width : expr option }

and ty_expr =
  | Ty_int of { signed : bool; width : expr }  (* signed<w> / unsigned<w> *)
  | Ty_alias of string  (* int, unsigned int, char, bool, ... resolved at elaboration *)
  | Ty_void

and expr = { e : expr_node; eloc : loc }

and expr_node =
  | Lit of { value : Bn.t; forced : Bitvec.ty option }
      (* [forced] is set for Verilog-sized literals such as 7'd0 *)
  | Ident of string
  | Index of expr * expr  (* a[i]: bit-select on scalars, element on arrays *)
  | Range of expr * expr * expr  (* a[hi:lo] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cast of cast_kind * expr
  | Concat of expr * expr  (* a :: b *)
  | Ternary of expr * expr * expr
  | Call of string * expr list
  | Array_init of expr list  (* { e0, e1, ... } for constant tables *)

type storage =
  | St_register  (* architectural register (scalar or file) *)
  | St_extern  (* address space, e.g. main memory *)
  | St_param  (* no storage class: ISA parameter *)
  | St_const  (* const register: ROM, internalized by synthesis *)
  | St_local  (* local variable inside behavior *)

type assign_op = A_eq | A_add | A_sub | A_mul | A_and | A_or | A_xor | A_shl | A_shr

type stmt = { s : stmt_node; sloc : loc }

and stmt_node =
  | Decl of { ty : ty_expr; decls : (string * expr option * expr option) list }
      (* name, optional array size, optional initializer *)
  | Assign of assign_op * expr * expr  (* lvalue, rhs *)
  | Incr of expr  (* ++x / x++ *)
  | Decr of expr  (* --x / x-- *)
  | Expr_stmt of expr  (* function call for side effects *)
  | If of expr * stmt list * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | Switch of expr * (expr option * stmt list) list
      (* case value (None = default), arm body; arms do not fall through *)
  | Spawn of stmt list
  | Return of expr option
  | Block of stmt list

(* One element of an encoding specifier: a sized literal or a named field
   covering bits [hi:lo] of that field's value. *)
type enc_elem =
  | Enc_lit of Bitvec.t
  | Enc_field of { field : string; hi : int; lo : int }

type instruction = {
  iname : string;
  encoding : enc_elem list;  (* most-significant element first *)
  behavior : stmt list;
  iloc : loc;
}

type always_block = { aname : string; abody : stmt list; aloc : loc }

type state_decl = {
  dname : string;
  dty : ty_expr;
  storage : storage;
  array_size : expr option;  (* [n] for register files / address spaces *)
  init : expr option;
  attrs : string list;  (* e.g. is_pc, is_main_mem *)
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

let empty_isa = { state = []; instructions = []; always = []; functions = [] }

type instr_set = { set_name : string; extends : string option; set_isa : isa }

type core_def = { core_name : string; provides : string list; core_isa : isa }

type desc = { imports : (string * loc) list; sets : instr_set list; cores : core_def list }

exception Syntax_error of loc * string

let syntax_error loc fmt = Format.kasprintf (fun m -> raise (Syntax_error (loc, m))) fmt

(* 2^16 bits: the vector width IEEE 1364 requires every Verilog tool to accept *)
let max_width = 65536
