(* Hand-written lexer for CoreDSL.

   Replaces the Xtext-generated front-end of the paper. Supports C-style
   comments, decimal/hex/binary literals, and Verilog-style sized literals
   such as [7'd0] or [3'b101] (which carry their type, cf. Section 2.3).

   Characters are read straight out of the source string. A punctuator is
   found among the few that share its first character and a keyword by a
   table lookup, so neither builds a string; an identifier takes one
   substring. *)

open Ast

type token =
  | ID of string
  | INT of { value : Bn.t; forced : Bitvec.ty option }
  | STRING of string
  | KW of string
  | PUNCT of string
  | EOF

type lexed = { tok : token; loc : loc }

let keywords =
  [
    "import"; "InstructionSet"; "Core"; "extends"; "provides";
    "architectural_state"; "instructions"; "always"; "functions";
    "encoding"; "behavior"; "assembly"; "register"; "extern"; "const";
    "signed"; "unsigned"; "if"; "else"; "for"; "while"; "do"; "switch"; "case";
    "default"; "break"; "return"; "spawn";
    "void"; "bool"; "int"; "char"; "long"; "short"; "true"; "false";
  ]

let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_bin_digit c = c = '0' || c = '1'

type state = { src : string; file : string; mutable pos : int; mutable line : int; mutable bol : int }

let cur_loc st = { file = st.file; line = st.line; col = st.pos - st.bol + 1 }

let at_end st = st.pos >= String.length st.src

(* The character [k] places ahead, or NUL past the end. NUL begins no
   token, so a test for a particular character needs no bounds check;
   the end of the input itself is tested with [at_end]. *)
let char_at st k =
  if st.pos + k < String.length st.src then String.unsafe_get st.src (st.pos + k) else '\000'

(* Step over one character, tracking lines. Only whitespace, comments and
   strings can hold a newline; the other token kinds move [pos] directly. *)
let advance st =
  if char_at st 0 = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let rec skip_ws st =
  match char_at st 0 with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_ws st
  | '/' when char_at st 1 = '/' ->
      while (not (at_end st)) && char_at st 0 <> '\n' do
        advance st
      done;
      skip_ws st
  | '/' when char_at st 1 = '*' ->
      st.pos <- st.pos + 2;
      let rec go () =
        if at_end st then syntax_error (cur_loc st) "unterminated comment"
        else if char_at st 0 = '*' && char_at st 1 = '/' then st.pos <- st.pos + 2
        else begin
          advance st;
          go ()
        end
      in
      go ();
      skip_ws st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while is_ident_char (char_at st 0) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* A run of digits accepted by [pred], with '_' separators dropped. *)
let lex_digits st pred =
  let start = st.pos in
  while pred (char_at st 0) || char_at st 0 = '_' do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  if String.contains s '_' then String.concat "" (String.split_on_char '_' s) else s

(* The value of [digits] after [prefix] ("", "0x", "0b" or "0o"): a native
   int unless it needs more bits, since [Bn] builds a value digit by digit. *)
let number prefix digits =
  match int_of_string_opt (prefix ^ digits) with
  | Some v when v >= 0 -> Bn.of_int v
  | _ -> Bn.of_string_base (match prefix with "0x" -> 16 | "0b" -> 2 | "0o" -> 8 | _ -> 10) digits

(* A number, possibly a Verilog-sized literal <width>'<base><digits>. *)
let lex_number st =
  let loc = cur_loc st in
  let prefix, digits =
    match (char_at st 0, char_at st 1) with
    | '0', ('x' | 'X') ->
        st.pos <- st.pos + 2;
        ("0x", lex_digits st is_hex_digit)
    | '0', ('b' | 'B') ->
        st.pos <- st.pos + 2;
        ("0b", lex_digits st is_bin_digit)
    | _ -> ("", lex_digits st is_digit)
  in
  if digits = "" then syntax_error loc "malformed numeric literal";
  if char_at st 0 <> '\'' then INT { value = number prefix digits; forced = None }
  else begin
    (* sized literal: the digits lexed so far are the width *)
    st.pos <- st.pos + 1;
    let pred, base =
      match char_at st 0 with
      | 'd' | 'D' -> (is_digit, "")
      | 'b' | 'B' -> (is_bin_digit, "0b")
      | 'h' | 'H' | 'x' | 'X' -> (is_hex_digit, "0x")
      | 'o' | 'O' -> ((fun c -> c >= '0' && c <= '7'), "0o")
      | _ -> syntax_error (cur_loc st) "expected base character after ' in sized literal"
    in
    st.pos <- st.pos + 1;
    let width =
      match int_of_string_opt digits with
      | Some w when prefix = "" && w >= 1 && w <= max_width -> w
      | _ -> syntax_error loc "width of sized literal must be a plain decimal from 1 to %d" max_width
    in
    let body = lex_digits st pred in
    if body = "" then syntax_error (cur_loc st) "empty sized literal";
    INT { value = number base body; forced = Some (Bitvec.unsigned_ty width) }
  end

let lex_string st =
  advance st (* opening quote *);
  let b = Buffer.create 16 in
  let rec go () =
    if at_end st then syntax_error (cur_loc st) "unterminated string";
    match char_at st 0 with
    | '"' -> advance st
    | '\\' ->
        advance st;
        if at_end st then syntax_error (cur_loc st) "unterminated string";
        Buffer.add_char b (match char_at st 0 with 'n' -> '\n' | 't' -> '\t' | c -> c);
        advance st;
        go ()
    | c ->
        Buffer.add_char b c;
        advance st;
        go ()
  in
  go ();
  STRING (Buffer.contents b)

(* Punctuators; at each position the longest one that matches is taken. *)
let puncts =
  [
    "<<="; ">>="; "::"; "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||";
    "++"; "--"; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^=";
    "{"; "}"; "("; ")"; "["; "]"; ";"; ":"; ","; "?"; "."; "=";
    "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "~"; "!"; "<"; ">"; "#";
  ]

(* [puncts] by first character, longest first *)
let puncts_by_first =
  let t = Array.make 256 [] in
  List.iter (fun p -> t.(Char.code p.[0]) <- p :: t.(Char.code p.[0])) puncts;
  Array.map (List.stable_sort (fun a b -> compare (String.length b) (String.length a))) t

(* does [p] continue at [st.pos] from its [k]-th character on? *)
let rec matches_from st p k = k = String.length p || (char_at st k = p.[k] && matches_from st p (k + 1))

let rec longest_punct st = function
  | p :: rest -> if matches_from st p 1 then p else longest_punct st rest
  | [] -> syntax_error (cur_loc st) "unexpected character '%c'" (char_at st 0)

let lex_punct st =
  let p = longest_punct st puncts_by_first.(Char.code (char_at st 0)) in
  st.pos <- st.pos + String.length p;
  PUNCT p

let next_token st =
  skip_ws st;
  let loc = cur_loc st in
  let tok =
    if at_end st then EOF
    else
      let c = char_at st 0 in
      if is_ident_start c then
        let id = lex_ident st in
        if Hashtbl.mem keyword_table id then KW id else ID id
      else if is_digit c then lex_number st
      else if c = '"' then lex_string st
      else lex_punct st
  in
  { tok; loc }

(* Tokenize the whole input. *)
let tokenize ?(file = "<input>") src =
  let st = { src; file; pos = 0; line = 1; bol = 0 } in
  let[@tail_mod_cons] rec go () =
    let t = next_token st in
    match t.tok with EOF -> [ t ] | _ -> t :: go ()
  in
  go ()
