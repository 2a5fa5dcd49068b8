(* Recursive-descent parser for CoreDSL, following the grammar in Figure 2
   of the paper plus C-inspired statements and expressions (Section 2.4). *)

open Ast
open Lexer

type p = {
  toks : lexed array;
  mutable i : int;
  (* running '{'/'}' nesting depth of everything consumed so far; used by
     error recovery to resynchronize at the closing brace of a broken
     construct *)
  mutable depth : int;
  (* when present, recoverable syntax errors are accumulated here instead
     of aborting the parse *)
  diags : Diag.collector option;
}

let peek p = p.toks.(p.i).tok
let peek2 p = if p.i + 1 < Array.length p.toks then p.toks.(p.i + 1).tok else EOF
let loc p = p.toks.(p.i).loc

let advance p =
  if p.i < Array.length p.toks - 1 then begin
    (match p.toks.(p.i).tok with
    | PUNCT "{" -> p.depth <- p.depth + 1
    | PUNCT "}" -> p.depth <- p.depth - 1
    | _ -> ());
    p.i <- p.i + 1
  end

let describe = function
  | ID s -> Printf.sprintf "identifier '%s'" s
  | INT _ -> "integer literal"
  | STRING _ -> "string literal"
  | KW s -> Printf.sprintf "keyword '%s'" s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "end of input"

let err p fmt = syntax_error (loc p) fmt

(* ---- error recovery ---- *)

let recovering p = p.diags <> None

let record_error p l m =
  match p.diags with
  | Some c -> Diag.add c (Diag.make ~span:(Ast.span_of_loc l) ~code:"E0002" m)
  | None -> ()

(* Skip tokens until the brace depth returns to [d], eating the closing
   '}' of the broken construct. Guarantees at least one token of progress
   when the error occurred at depth [d] already (unless the next token is
   the '}' or EOF the caller handles itself). *)
let resync_to_depth p d =
  let start = p.i in
  while p.depth > d && peek p <> EOF do
    advance p
  done;
  if p.i = start && peek p <> EOF && peek p <> PUNCT "}" then advance p

let expect_punct p s =
  match peek p with
  | PUNCT q when q = s -> advance p
  | t -> err p "expected '%s' but found %s" s (describe t)

let expect_kw p s =
  match peek p with
  | KW q when q = s -> advance p
  | t -> err p "expected keyword '%s' but found %s" s (describe t)

let expect_id p =
  match peek p with
  | ID s ->
      advance p;
      s
  | t -> err p "expected identifier but found %s" (describe t)

let accept_punct p s =
  match peek p with
  | PUNCT q when q = s ->
      advance p;
      true
  | _ -> false

let accept_kw p s =
  match peek p with
  | KW q when q = s ->
      advance p;
      true
  | _ -> false

(* ---- types ---- *)

let lit_expr l n = { e = Lit { value = Bn.of_int n; forced = None }; eloc = l }

let is_type_start = function
  | KW ("signed" | "unsigned" | "int" | "char" | "bool" | "long" | "short" | "void") -> true
  | _ -> false

(* Parse a type. [parse_expr] is passed in to break the mutual recursion
   with expressions (widths are expressions). *)
let rec parse_ty p ~parse_expr =
  let l = loc p in
  match peek p with
  | KW "void" ->
      advance p;
      Ty_void
  | KW (("signed" | "unsigned") as sgn) -> (
      advance p;
      let signed = sgn = "signed" in
      match peek p with
      | PUNCT "<" ->
          advance p;
          let w = parse_expr p in
          (match peek p with
          | PUNCT ">" -> advance p
          | PUNCT ">>" ->
              (* split '>>' that closes nested templates; not needed in
                 practice but cheap to handle *)
              p.toks.(p.i) <- { (p.toks.(p.i)) with tok = PUNCT ">" }
          | t -> err p "expected '>' but found %s" (describe t));
          Ty_int { signed; width = w }
      | KW "int" ->
          advance p;
          Ty_int { signed; width = lit_expr l 32 }
      | KW "char" ->
          advance p;
          Ty_int { signed; width = lit_expr l 8 }
      | KW "long" ->
          advance p;
          Ty_int { signed; width = lit_expr l 64 }
      | KW "short" ->
          advance p;
          Ty_int { signed; width = lit_expr l 16 }
      | _ -> Ty_int { signed; width = lit_expr l 32 })
  | KW "int" ->
      advance p;
      Ty_int { signed = true; width = lit_expr l 32 }
  | KW "char" ->
      advance p;
      Ty_int { signed = false; width = lit_expr l 8 }
  | KW "long" ->
      advance p;
      Ty_int { signed = true; width = lit_expr l 64 }
  | KW "short" ->
      advance p;
      Ty_int { signed = true; width = lit_expr l 16 }
  | KW "bool" ->
      advance p;
      Ty_int { signed = false; width = lit_expr l 1 }
  | t -> err p "expected type but found %s" (describe t)

(* ---- expressions (precedence climbing) ---- *)

(* a binary operator's precedence level (loosest 0 to tightest 10) and
   node; [None] marks the concatenation operator, which builds a [Concat]
   node instead of a [Binop] *)
let binop_of = function
  | PUNCT "||" -> Some (0, Some Lor)
  | PUNCT "&&" -> Some (1, Some Land)
  | PUNCT "|" -> Some (2, Some Or)
  | PUNCT "^" -> Some (3, Some Xor)
  | PUNCT "&" -> Some (4, Some And)
  | PUNCT "==" -> Some (5, Some Eq)
  | PUNCT "!=" -> Some (5, Some Ne)
  | PUNCT "<" -> Some (6, Some Lt)
  | PUNCT "<=" -> Some (6, Some Le)
  | PUNCT ">" -> Some (6, Some Gt)
  | PUNCT ">=" -> Some (6, Some Ge)
  | PUNCT "::" -> Some (7, None)
  | PUNCT "<<" -> Some (8, Some Shl)
  | PUNCT ">>" -> Some (8, Some Shr)
  | PUNCT "+" -> Some (9, Some Add)
  | PUNCT "-" -> Some (9, Some Sub)
  | PUNCT "*" -> Some (10, Some Mul)
  | PUNCT "/" -> Some (10, Some Div)
  | PUNCT "%" -> Some (10, Some Rem)
  | _ -> None

(* Width expressions inside 'signed<...>' start at the additive level so
   that '>' closes the template bracket; parenthesize to use lower-
   precedence operators in a width. *)
let rec parse_expr p = parse_ternary p

and parse_width_expr p = parse_binop p 9

and parse_ternary p =
  let c = parse_binop p 0 in
  if accept_punct p "?" then begin
    let t = parse_expr p in
    expect_punct p ":";
    let f = parse_ternary p in
    { e = Ternary (c, t, f); eloc = c.eloc }
  end
  else c

(* precedence climbing: operators of level [min] and tighter, each level
   left-associative *)
and parse_binop p min =
  let rec go lhs =
    match binop_of (peek p) with
    | Some (level, op) when level >= min ->
        advance p;
        let rhs = parse_binop p (level + 1) in
        go
          (match op with
          | Some op -> { e = Binop (op, lhs, rhs); eloc = lhs.eloc }
          | None -> { e = Concat (lhs, rhs); eloc = lhs.eloc })
    | _ -> lhs
  in
  go (parse_unary p)

and parse_unary p =
  let l = loc p in
  match peek p with
  | PUNCT "-" ->
      advance p;
      { e = Unop (Neg, parse_unary p); eloc = l }
  | PUNCT "~" ->
      advance p;
      { e = Unop (Not, parse_unary p); eloc = l }
  | PUNCT "!" ->
      advance p;
      { e = Unop (Lnot, parse_unary p); eloc = l }
  | PUNCT "+" ->
      advance p;
      parse_unary p
  | PUNCT "(" when is_type_start (peek2 p) ->
      advance p;
      let ck =
        match peek p with
        | KW (("signed" | "unsigned") as sgn) when peek2 p = PUNCT ")" ->
            (* bare (signed)/(unsigned): reinterpret at the operand width *)
            advance p;
            { cast_signed = sgn = "signed"; cast_width = None }
        | _ -> (
            match parse_ty p ~parse_expr:parse_width_expr with
            | Ty_int { signed; width } -> { cast_signed = signed; cast_width = Some width }
            | Ty_void -> err p "cannot cast to void"
            | Ty_alias _ -> assert false)
      in
      expect_punct p ")";
      let arg = parse_unary p in
      { e = Cast (ck, arg); eloc = l }
  | PUNCT "(" ->
      advance p;
      let e = parse_expr p in
      expect_punct p ")";
      (* a parenthesized expression can be indexed/sliced: (a + b)[3:0] *)
      parse_suffixes p e
  | _ -> parse_postfix p

and parse_postfix p =
  let l = loc p in
  let prim =
    match peek p with
    | INT { value; forced } ->
        advance p;
        { e = Lit { value; forced }; eloc = l }
    | KW "true" ->
        advance p;
        { e = Lit { value = Bn.one; forced = Some Bitvec.bool_ty }; eloc = l }
    | KW "false" ->
        advance p;
        { e = Lit { value = Bn.zero; forced = Some Bitvec.bool_ty }; eloc = l }
    | ID name when peek2 p = PUNCT "(" ->
        advance p;
        advance p;
        let args = parse_args p in
        { e = Call (name, args); eloc = l }
    | ID name ->
        advance p;
        { e = Ident name; eloc = l }
    | PUNCT "{" ->
        (* array initializer, e.g. ROM contents *)
        advance p;
        let rec go acc =
          if accept_punct p "}" then List.rev acc
          else begin
            let e = parse_expr p in
            if accept_punct p "," then go (e :: acc)
            else begin
              expect_punct p "}";
              List.rev (e :: acc)
            end
          end
        in
        { e = Array_init (go []); eloc = l }
    | t -> err p "expected expression but found %s" (describe t)
  in
  parse_suffixes p prim

and parse_suffixes p e =
  if accept_punct p "[" then begin
    let first = parse_expr p in
    if accept_punct p ":" then begin
      let lo = parse_expr p in
      expect_punct p "]";
      parse_suffixes p { e = Range (e, first, lo); eloc = e.eloc }
    end
    else begin
      expect_punct p "]";
      parse_suffixes p { e = Index (e, first); eloc = e.eloc }
    end
  end
  else e

and parse_args p =
  if accept_punct p ")" then []
  else begin
    let rec go acc =
      let e = parse_expr p in
      if accept_punct p "," then go (e :: acc)
      else begin
        expect_punct p ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

(* ---- statements ---- *)

let parse_ty p = parse_ty p ~parse_expr:parse_width_expr

let is_assign_punct = function
  | "=" | "+=" | "-=" | "*=" | "&=" | "|=" | "^=" | "<<=" | ">>=" -> true
  | _ -> false

let assign_op_of = function
  | "=" -> A_eq
  | "+=" -> A_add
  | "-=" -> A_sub
  | "*=" -> A_mul
  | "&=" -> A_and
  | "|=" -> A_or
  | "^=" -> A_xor
  | "<<=" -> A_shl
  | ">>=" -> A_shr
  | _ -> assert false

let rec parse_stmt p : stmt =
  let l = loc p in
  match peek p with
  | PUNCT "{" ->
      advance p;
      let body = parse_stmts_until p "}" in
      { s = Block body; sloc = l }
  | KW "if" ->
      advance p;
      expect_punct p "(";
      let c = parse_expr p in
      expect_punct p ")";
      let thn = block_of (parse_stmt p) in
      let els = if accept_kw p "else" then block_of (parse_stmt p) else [] in
      { s = If (c, thn, els); sloc = l }
  | KW "for" ->
      advance p;
      expect_punct p "(";
      let init = if accept_punct p ";" then None else Some (parse_simple_or_decl p) in
      let cond = if peek p = PUNCT ";" then None else Some (parse_expr p) in
      expect_punct p ";";
      let step = if peek p = PUNCT ")" then None else Some (parse_simple p) in
      expect_punct p ")";
      let body = block_of (parse_stmt p) in
      { s = For (init, cond, step, body); sloc = l }
  | KW "while" ->
      advance p;
      expect_punct p "(";
      let c = parse_expr p in
      expect_punct p ")";
      let body = block_of (parse_stmt p) in
      { s = While (c, body); sloc = l }
  | KW "do" ->
      advance p;
      let body = block_of (parse_stmt p) in
      expect_kw p "while";
      expect_punct p "(";
      let c = parse_expr p in
      expect_punct p ")";
      expect_punct p ";";
      { s = Do_while (body, c); sloc = l }
  | KW "switch" ->
      advance p;
      expect_punct p "(";
      let scrutinee = parse_expr p in
      expect_punct p ")";
      expect_punct p "{";
      let parse_arm () =
        let case_value =
          if accept_kw p "case" then begin
            let v = parse_expr p in
            expect_punct p ":";
            Some v
          end
          else begin
            expect_kw p "default";
            expect_punct p ":";
            None
          end
        in
        (* arm body runs until the next case/default label or the closing
           brace; an optional trailing 'break;' ends the arm (arms never
           fall through) *)
        let rec stmts acc =
          match peek p with
          | PUNCT "}" | KW "case" | KW "default" -> List.rev acc
          | KW "break" ->
              advance p;
              expect_punct p ";";
              (match peek p with
              | PUNCT "}" | KW "case" | KW "default" -> ()
              | _ -> err p "statements after 'break' in a switch arm");
              List.rev acc
          | _ -> stmts (parse_stmt p :: acc)
        in
        (case_value, stmts [])
      in
      let rec arms acc =
        if accept_punct p "}" then List.rev acc else arms (parse_arm () :: acc)
      in
      { s = Switch (scrutinee, arms []); sloc = l }
  | KW "return" ->
      advance p;
      let e = if peek p = PUNCT ";" then None else Some (parse_expr p) in
      expect_punct p ";";
      { s = Return e; sloc = l }
  | KW "spawn" ->
      advance p;
      expect_punct p "{";
      let body = parse_stmts_until p "}" in
      { s = Spawn body; sloc = l }
  | t when is_type_start t ->
      let st = parse_decl p in
      expect_punct p ";";
      st
  | _ ->
      let st = parse_simple p in
      expect_punct p ";";
      st

and block_of st = match st.s with Block b -> b | _ -> [ st ]

and parse_stmts_until p closer =
  let rec go acc =
    if accept_punct p closer then List.rev acc else go (parse_stmt p :: acc)
  in
  go []

(* declaration: ty name (= init)? (, name (= init)?)* — local variables *)
and parse_decl p =
  let l = loc p in
  let ty = parse_ty p in
  let rec go acc =
    let name = expect_id p in
    let size = if accept_punct p "[" then begin
        let e = parse_expr p in
        expect_punct p "]";
        Some e
      end
      else None
    in
    let init = if accept_punct p "=" then Some (parse_expr p) else None in
    let acc = (name, size, init) :: acc in
    if accept_punct p "," then go acc else List.rev acc
  in
  { s = Decl { ty; decls = go [] }; sloc = l }

(* init part of a for loop: declaration or simple statement *)
and parse_simple_or_decl p =
  let st = if is_type_start (peek p) then parse_decl p else parse_simple p in
  expect_punct p ";";
  st

(* assignment / increment / call statement (no trailing ';') *)
and parse_simple p =
  let l = loc p in
  match peek p with
  | PUNCT "++" ->
      advance p;
      { s = Incr (parse_postfix p); sloc = l }
  | PUNCT "--" ->
      advance p;
      { s = Decr (parse_postfix p); sloc = l }
  | _ -> (
      let lv = parse_expr p in
      match peek p with
      | PUNCT s when is_assign_punct s ->
          advance p;
          let rhs = parse_expr p in
          { s = Assign (assign_op_of s, lv, rhs); sloc = l }
      | PUNCT "++" ->
          advance p;
          { s = Incr lv; sloc = l }
      | PUNCT "--" ->
          advance p;
          { s = Decr lv; sloc = l }
      | _ -> { s = Expr_stmt lv; sloc = l })

(* ---- top-level structure ---- *)

(* encoding: elements separated by '::', terminated by ';' *)
let parse_encoding p =
  let parse_elem () =
    let l = loc p in
    match peek p with
    | INT { value; forced } -> (
        advance p;
        match forced with
        | Some ty -> Enc_lit (Bitvec.of_bn ty value)
        | None -> syntax_error l "encoding literals must be sized (e.g. 7'd0)")
    | ID field ->
        advance p;
        expect_punct p "[";
        let int_tok () =
          match peek p with
          | INT { value; _ } ->
              advance p;
              Bn.to_int_exn value
          | t -> err p "expected integer in encoding field range, found %s" (describe t)
        in
        let hi = int_tok () in
        expect_punct p ":";
        let lo = int_tok () in
        expect_punct p "]";
        Enc_field { field; hi; lo }
    | t -> err p "expected encoding element, found %s" (describe t)
  in
  let rec go acc =
    let e = parse_elem () in
    if accept_punct p "::" then go (e :: acc)
    else begin
      expect_punct p ";";
      List.rev (e :: acc)
    end
  in
  go []

let parse_attrs p =
  (* [[attr]] [[attr2]] ... *)
  let rec go acc =
    if peek p = PUNCT "[" && peek2 p = PUNCT "[" then begin
      advance p;
      advance p;
      let a = expect_id p in
      expect_punct p "]";
      expect_punct p "]";
      go (a :: acc)
    end
    else List.rev acc
  in
  go []

(* architectural_state body: storage-classed declarations *)
let parse_state_decls p =
  expect_punct p "{";
  let rec go acc =
    if accept_punct p "}" then List.rev acc
    else begin
      let l = loc p in
      let storage =
        if accept_kw p "register" then St_register
        else if accept_kw p "extern" then St_extern
        else if accept_kw p "const" then begin
          ignore (accept_kw p "register");
          St_const
        end
        else St_param
      in
      let ty = parse_ty p in
      let rec decls acc2 =
        let name = expect_id p in
        (* '[[' starts an attribute, a single '[' an array size *)
        let size =
          if peek p = PUNCT "[" && peek2 p <> PUNCT "[" then begin
            advance p;
            let e = parse_expr p in
            expect_punct p "]";
            Some e
          end
          else None
        in
        let attrs = parse_attrs p in
        let init = if accept_punct p "=" then Some (parse_expr p) else None in
        let d = { dname = name; dty = ty; storage; array_size = size; init; attrs; dloc = l } in
        if accept_punct p "," then decls (d :: acc2) else List.rev (d :: acc2)
      in
      let ds = decls [] in
      expect_punct p ";";
      go (List.rev ds @ acc)
    end
  in
  go []

let parse_instruction p =
  let l = loc p in
  let name = expect_id p in
  expect_punct p "{";
  let encoding = ref [] and behavior = ref [] in
  let rec go () =
    if accept_punct p "}" then ()
    else begin
      (match peek p with
      | KW "encoding" ->
          advance p;
          expect_punct p ":";
          encoding := parse_encoding p
      | KW "assembly" ->
          (* accepted and ignored: assembly syntax hints don't affect HLS *)
          advance p;
          expect_punct p ":";
          (match peek p with
          | STRING _ -> advance p
          | PUNCT "{" ->
              advance p;
              (match peek p with STRING _ -> advance p | _ -> ());
              (if accept_punct p "," then match peek p with STRING _ -> advance p | _ -> ());
              expect_punct p "}"
          | t -> err p "expected assembly string, found %s" (describe t));
          expect_punct p ";"
      | KW "behavior" ->
          advance p;
          expect_punct p ":";
          behavior := block_of (parse_stmt p)
      | t -> err p "expected instruction section, found %s" (describe t));
      go ()
    end
  in
  go ();
  { iname = name; encoding = !encoding; behavior = !behavior; iloc = l }

let parse_instructions p =
  expect_punct p "{";
  let d0 = p.depth in
  let rec go acc =
    if accept_punct p "}" then List.rev acc
    else
      match parse_instruction p with
      | i -> go (i :: acc)
      | exception Syntax_error (l, m) when recovering p ->
          (* record the error, drop the broken instruction and resume at
             its closing '}' so the remaining instructions still parse *)
          record_error p l m;
          resync_to_depth p d0;
          if peek p = EOF then List.rev acc else go acc
  in
  go []

let parse_always p =
  expect_punct p "{";
  let rec go acc =
    if accept_punct p "}" then List.rev acc
    else begin
      let l = loc p in
      let name = expect_id p in
      expect_punct p "{";
      let body = parse_stmts_until p "}" in
      go ({ aname = name; abody = body; aloc = l } :: acc)
    end
  in
  go []

let parse_functions p =
  expect_punct p "{";
  let rec go acc =
    if accept_punct p "}" then List.rev acc
    else begin
      let l = loc p in
      let ret = parse_ty p in
      let name = expect_id p in
      expect_punct p "(";
      let params =
        if accept_punct p ")" then []
        else begin
          let rec ps acc2 =
            let ty = parse_ty p in
            let pn = expect_id p in
            if accept_punct p "," then ps ((ty, pn) :: acc2)
            else begin
              expect_punct p ")";
              List.rev ((ty, pn) :: acc2)
            end
          in
          ps []
        end
      in
      expect_punct p "{";
      let body = parse_stmts_until p "}" in
      go ({ fname = name; ret; params; body; floc = l } :: acc)
    end
  in
  go []

let parse_isa p =
  expect_punct p "{";
  let state = ref [] and instructions = ref [] and always = ref [] and functions = ref [] in
  let rec go () =
    if accept_punct p "}" then ()
    else begin
      (match peek p with
      | KW "architectural_state" ->
          advance p;
          state := !state @ parse_state_decls p
      | KW "instructions" ->
          advance p;
          instructions := !instructions @ parse_instructions p
      | KW "always" ->
          advance p;
          always := !always @ parse_always p
      | KW "functions" ->
          advance p;
          functions := !functions @ parse_functions p
      | t -> err p "expected ISA section, found %s" (describe t));
      go ()
    end
  in
  go ();
  { state = !state; instructions = !instructions; always = !always; functions = !functions }

let is_toplevel_start = function
  | KW ("import" | "InstructionSet" | "Core") -> true
  | _ -> false

let parse_desc p =
  let imports = ref [] and sets = ref [] and cores = ref [] in
  let step () =
    match peek p with
    | EOF -> ()
    | KW "import" ->
        let l = loc p in
        advance p;
        (match peek p with
        | STRING s ->
            advance p;
            imports := (s, l) :: !imports
        | t -> err p "expected import path string, found %s" (describe t));
        (* the ';' is required by the Figure 2 grammar but omitted in the
           paper's own examples; accept both *)
        ignore (accept_punct p ";")
    | KW "InstructionSet" ->
        advance p;
        let name = expect_id p in
        let extends = if accept_kw p "extends" then Some (expect_id p) else None in
        let isa = parse_isa p in
        sets := { set_name = name; extends; set_isa = isa } :: !sets
    | KW "Core" ->
        advance p;
        let name = expect_id p in
        let provides =
          if accept_kw p "provides" then begin
            let rec ps acc =
              let s = expect_id p in
              if accept_punct p "," then ps (s :: acc) else List.rev (s :: acc)
            in
            ps []
          end
          else []
        in
        let isa = parse_isa p in
        cores := { core_name = name; provides; core_isa = isa } :: !cores
    | t -> err p "expected import, InstructionSet or Core, found %s" (describe t)
  in
  let rec go () =
    if peek p <> EOF then begin
      (try step ()
       with Syntax_error (l, m) when recovering p ->
         record_error p l m;
         (* resynchronize at the next top-level construct *)
         let start = p.i in
         while peek p <> EOF && (p.depth > 0 || not (is_toplevel_start (peek p))) do
           advance p
         done;
         if p.i = start && peek p <> EOF then advance p);
      go ()
    end
  in
  go ();
  { imports = List.rev !imports; sets = List.rev !sets; cores = List.rev !cores }

(* Parse a complete CoreDSL description from a string. When [diags] is
   given, recoverable syntax errors are accumulated there (and the broken
   construct dropped) instead of aborting the parse; lexical errors remain
   fatal. *)
let parse ?diags ?(file = "<input>") src =
  let toks = Array.of_list (Lexer.tokenize ~file src) in
  let p = { toks; i = 0; depth = 0; diags } in
  parse_desc p

(* Parse a single expression (for tests and parameter values). *)
let parse_expr_string ?(file = "<expr>") src =
  let toks = Array.of_list (Lexer.tokenize ~file src) in
  let p = { toks; i = 0; depth = 0; diags = None } in
  let e = parse_expr p in
  (match peek p with EOF -> () | t -> err p "trailing tokens after expression: %s" (describe t));
  e
