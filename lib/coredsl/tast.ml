(* Typed AST: the output of {!Typecheck} and the input to both the reference
   interpreter ({!Interp}) and the Longnail IR lowering.

   Every expression carries its resolved CoreDSL type. All implicit
   conversions have been made explicit as [T_cast] nodes, so consumers can
   rely on operand types matching the {!Bitvec} operator algebra exactly. *)

open Ast

type texpr = { te : texpr_node; tty : Bitvec.ty; tloc : loc }

and texpr_node =
  | T_lit of Bitvec.t
  | T_local of string  (* local variable or function parameter *)
  | T_field of string  (* encoding field of the current instruction *)
  | T_reg of string  (* scalar architectural register read (incl. PC) *)
  | T_regfile of string * texpr  (* register file element read *)
  | T_rom of string * texpr  (* constant register file read *)
  | T_mem of { space : string; addr : texpr; elems : int }
      (* little-endian read of [elems] consecutive elements *)
  | T_binop of binop * texpr * texpr
  | T_unop of unop * texpr
  | T_cast of texpr  (* cast/convert the operand to [tty] *)
  | T_concat of texpr * texpr
  | T_extract of { value : texpr; lo : texpr; width : int }
      (* bit-range extract; [lo] may be dynamic, the width is static *)
  | T_ternary of texpr * texpr * texpr
  | T_call of string * texpr list

type tstmt = { ts : tstmt_node; tsloc : loc }

and tstmt_node =
  | S_local_decl of string * Bitvec.ty * texpr option
  | S_assign_local of string * texpr
  | S_assign_reg of string * texpr
  | S_assign_regfile of string * texpr * texpr  (* file, index, value *)
  | S_assign_mem of { space : string; addr : texpr; value : texpr; elems : int }
  | S_if of texpr * tstmt list * tstmt list
  | S_for of { init : tstmt list; cond : texpr; step : tstmt list; body : tstmt list }
  | S_spawn of tstmt list
  | S_return of texpr option
  | S_expr of texpr

type tfunc = {
  tf_name : string;
  tf_ret : Bitvec.ty option;  (* None = void *)
  tf_params : (string * Bitvec.ty) list;
  tf_body : tstmt list;
}

(* One encoding field segment: [len] bits of the field starting at field bit
   [fld_lo] appear in the instruction word starting at bit [instr_lo]. *)
type field_segment = { instr_lo : int; fld_lo : int; seg_len : int }

type field_info = { fld_name : string; fld_width : int; segments : field_segment list }

type tinstr = {
  ti_name : string;
  enc_width : int;
  mask : Bitvec.t;  (* 1-bits where the encoding is fixed *)
  match_bits : Bitvec.t;  (* fixed bit values under the mask *)
  fields : field_info list;
  ti_behavior : tstmt list;
}

type talways = { ta_name : string; ta_body : tstmt list }

type tunit = {
  tu_name : string;
  elab : Elaborate.elaborated;
  tinstrs : tinstr list;
  talways : talways list;
  tfuncs : tfunc list;
}

(* Generated local names end in '#N'; no CoreDSL identifier contains '#'. *)
let generated_local base n = Printf.sprintf "%s#%d" base n

let source_name name =
  match String.index_opt name '#' with Some i -> String.sub name 0 i | None -> name

let find_field ti name = List.find_opt (fun f -> f.fld_name = name) ti.fields
let find_tfunc tu name = List.find_opt (fun f -> f.tf_name = name) tu.tfuncs
let find_tinstr tu name = List.find_opt (fun i -> i.ti_name = name) tu.tinstrs

(* Does this statement list (transitively) contain a spawn block? *)
let rec contains_spawn stmts =
  List.exists
    (fun st ->
      match st.ts with
      | S_spawn _ -> true
      | S_if (_, a, b) -> contains_spawn a || contains_spawn b
      | S_for { body; _ } -> contains_spawn body
      | _ -> false)
    stmts

(* ---- pretty-printing (for tests and debug dumps) ---- *)

let rec pp_texpr fmt (e : texpr) =
  let open Format in
  (match e.te with
  | T_lit v -> fprintf fmt "%s" (Bitvec.to_string v)
  | T_local n -> fprintf fmt "%s" n
  | T_field n -> fprintf fmt "%s" n
  | T_reg n -> fprintf fmt "%s" n
  | T_regfile (n, i) -> fprintf fmt "%s[%a]" n pp_texpr i
  | T_rom (n, i) -> fprintf fmt "%s[%a]" n pp_texpr i
  | T_mem { space; addr; elems } -> fprintf fmt "%s[%a +: %d]" space pp_texpr addr elems
  | T_binop (op, a, b) -> fprintf fmt "(%a %s %a)" pp_texpr a (binop_name op) pp_texpr b
  | T_unop (op, a) ->
      fprintf fmt "%s%a" (match op with Neg -> "-" | Not -> "~" | Lnot -> "!") pp_texpr a
  | T_cast a -> fprintf fmt "(%s)%a" (Bitvec.ty_to_string e.tty) pp_texpr a
  | T_concat (a, b) -> fprintf fmt "(%a :: %a)" pp_texpr a pp_texpr b
  | T_extract { value; lo; width } ->
      fprintf fmt "%a[%a +: %d]" pp_texpr value pp_texpr lo width
  | T_ternary (c, t, f) -> fprintf fmt "(%a ? %a : %a)" pp_texpr c pp_texpr t pp_texpr f
  | T_call (n, args) ->
      fprintf fmt "%s(" n;
      List.iteri (fun i a -> fprintf fmt "%s%a" (if i > 0 then ", " else "") pp_texpr a) args;
      fprintf fmt ")");
  ignore fmt

and binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Land -> "&&"
  | Lor -> "||"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
