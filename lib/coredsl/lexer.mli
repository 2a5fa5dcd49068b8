(** Hand-written lexer for CoreDSL.

   Replaces the Xtext-generated front-end of the paper. Supports C-style
   comments, decimal/hex/binary literals, and Verilog-style sized literals
   such as [7'd0] or [3'b101] (which carry their type, cf. Section 2.3).
   Punctuators dispatch on their first character and keywords on a table,
   so neither builds a string. *)

type token =
  | ID of string
  | INT of { value : Bitvec.Bn.t; forced : Bitvec.ty option }
  | STRING of string
  | KW of string
  | PUNCT of string
  | EOF

type lexed = { tok : token; loc : Ast.loc }

val keywords : string list
(** Reserved words: they lex as [KW], never as [ID]. *)

val puncts : string list
(** Punctuators: at each position the longest one that matches is taken. *)

val tokenize : ?file:string -> string -> lexed list
(** The tokens of a source, ending in [EOF]. A sized literal's width is a
    plain decimal from 1 to {!Ast.max_width}. Raises {!Ast.Syntax_error}. *)
