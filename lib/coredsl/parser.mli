(** Recursive-descent parser for CoreDSL, following the grammar in Figure 2
   of the paper plus C-inspired statements and expressions (Section 2.4). *)

(** With [diags], recoverable syntax errors are accumulated (dropping the
    broken construct) instead of raising; lexical errors remain fatal. *)
val parse : ?diags:Diag.collector -> ?file:string -> string -> Ast.desc

val parse_expr_string : ?file:string -> string -> Ast.expr
(** One expression, for tests and parameter values. *)
