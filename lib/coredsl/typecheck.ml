(* Type checker for CoreDSL behaviors.

   Implements the bitwidth-aware type system of Section 2.3: all operators
   produce results wide enough to avoid over-/underflow, and assignments
   that would lose precision or sign information are rejected unless an
   explicit cast is present. Produces the typed AST of {!Tast}. *)

open Ast
open Tast

exception Type_error of Diag.t

let type_error ?(code = "E0109") loc fmt =
  Format.kasprintf
    (fun m -> raise (Type_error (Diag.make ~span:(span_of_loc loc) ~code m)))
    fmt

type ctx = {
  elab : Elaborate.elaborated;
  cenv : Elaborate.cenv;  (* parameters for const-eval *)
  fields : field_info list;  (* encoding fields of current instruction *)
  mutable scopes : (string * (string * Bitvec.ty)) list list;
      (* innermost first: source name -> (TAST name, type) *)
  mutable fresh : int;  (* counter for generated TAST names *)
  fn_ret : Bitvec.ty option option;  (* Some r = inside function returning r *)
  in_always : bool;
  tfuncs : (string * tfunc) list;  (* already-checked functions *)
}

(* the visible local [name]: its TAST name and type *)
let lookup_local ctx name =
  let rec go = function
    | [] -> None
    | scope :: rest -> ( match List.assoc_opt name scope with Some t -> Some t | None -> go rest)
  in
  go ctx.scopes

let fresh_name ctx base =
  ctx.fresh <- ctx.fresh + 1;
  generated_local base ctx.fresh

(* Declare [name] in the innermost scope and return its TAST name. A
   declaration that shadows a visible local gets a fresh name, so each
   TAST local names one variable: the evaluators and the HLIR lowering
   bind locals by name, with no scopes of their own. *)
let declare_local ctx loc name ty =
  match ctx.scopes with
  | scope :: rest ->
      if List.mem_assoc name scope then type_error ~code:"E0108" loc "redeclaration of '%s'" name;
      let tname = if lookup_local ctx name = None then name else fresh_name ctx name in
      ctx.scopes <- ((name, (tname, ty)) :: scope) :: rest;
      tname
  | [] -> assert false

let in_scope ctx f =
  let saved = ctx.scopes in
  ctx.scopes <- [] :: saved;
  let r = f () in
  ctx.scopes <- saved;
  r

(* the value of a compile-time constant expression, [None] for any other
   expression; a constant whose evaluation fails is an E0204 error *)
let try_const ctx e = Elaborate.const_eval_opt ctx.cenv e

(* the width of a cast or local type: a constant of 1 to [max_width] bits *)
let declared_width ctx loc what e =
  match try_const ctx e with
  | None -> type_error loc "%s width must be a compile-time constant" what
  | Some v -> (
      match Elaborate.type_width v with
      | Some w -> w
      | None -> type_error loc "%s width must be from 1 to %d, got %s" what max_width (Bitvec.to_string v))

(* structural expression equality, used for the [from:to] same-variable rule *)
let rec expr_equal a b =
  match (a.e, b.e) with
  | Lit { value = v1; _ }, Lit { value = v2; _ } -> Bn.equal v1 v2
  | Ident x, Ident y -> x = y
  | Index (a1, i1), Index (a2, i2) -> expr_equal a1 a2 && expr_equal i1 i2
  | Range (a1, h1, l1), Range (a2, h2, l2) ->
      expr_equal a1 a2 && expr_equal h1 h2 && expr_equal l1 l2
  | Binop (o1, x1, y1), Binop (o2, x2, y2) -> o1 = o2 && expr_equal x1 x2 && expr_equal y1 y2
  | Unop (o1, x1), Unop (o2, x2) -> o1 = o2 && expr_equal x1 x2
  | Concat (x1, y1), Concat (x2, y2) -> expr_equal x1 x2 && expr_equal y1 y2
  | _ -> false

(* Decompose a range [hi:lo]: the width must be static. Returns the typed
   low index and the width. Accepts (1) both bounds constant, (2) hi
   structurally equal to lo + c for a constant c. *)
let range_width ctx loc hi lo =
  match (try_const ctx hi, try_const ctx lo) with
  | Some h, Some l ->
      let h = Bitvec.to_int h and l = Bitvec.to_int l in
      if h < l then type_error ~code:"E0104" loc "range [%d:%d] is reversed" h l;
      `Static (h, l)
  | _ -> (
      (* hi must be lo + c *)
      match hi.e with
      | Binop (Add, base, ofs) when expr_equal base lo -> (
          match try_const ctx ofs with
          | Some c -> `Dynamic (Bitvec.to_int c)
          | None -> type_error ~code:"E0104" loc "range bounds must differ by a compile-time constant")
      | Binop (Add, ofs, base) when expr_equal base lo -> (
          match try_const ctx ofs with
          | Some c -> `Dynamic (Bitvec.to_int c)
          | None -> type_error ~code:"E0104" loc "range bounds must differ by a compile-time constant")
      | _ ->
          type_error loc
            "range bounds must be constants or reference the same expression with a constant \
             offset")

let index_width elems = max 1 (Bitvec.Bn.num_bits (Bitvec.Bn.of_int (max 1 (elems - 1))))

(* insert an implicit conversion to [ty], failing if information is lost *)
let coerce ctx loc (ty : Bitvec.ty) (e : texpr) =
  ignore ctx;
  if Bitvec.ty_equal e.tty ty then e
  else if Bitvec.implicit_conv_ok ~src:e.tty ~dst:ty then { te = T_cast e; tty = ty; tloc = loc }
  else
    type_error ~code:"E0102" loc "implicit conversion from %s to %s loses information (use an explicit cast)"
      (Bitvec.ty_to_string e.tty) (Bitvec.ty_to_string ty)

(* truncating conversion used by compound assignments and ++/-- *)
let wrap_to ty (e : texpr) loc = if Bitvec.ty_equal e.tty ty then e else { te = T_cast e; tty = ty; tloc = loc }

let rec check_expr ctx (e : expr) : texpr =
  let loc = e.eloc in
  match e.e with
  | Lit { value; forced = Some ty } -> { te = T_lit (Bitvec.of_bn ty value); tty = ty; tloc = loc }
  | Lit { value; forced = None } ->
      let v =
        if Bn.compare value Bn.zero >= 0 then
          Bitvec.of_bn (Bitvec.unsigned_ty (max 1 (Bn.num_bits value))) value
        else Bitvec.of_bn (Bitvec.signed_ty (Bn.num_bits (Bn.neg value) + 1)) value
      in
      { te = T_lit v; tty = Bitvec.typ v; tloc = loc }
  | Ident name -> check_ident ctx loc name
  | Index (base, idx) -> check_index ctx loc base idx
  | Range (base, hi, lo) -> check_range ctx loc base hi lo
  | Binop (op, a, b) -> check_binop ctx loc op a b
  | Unop (op, a) -> check_unop ctx loc op a
  | Cast ({ cast_signed; cast_width }, a) -> (
      let ta = check_expr ctx a in
      match cast_width with
      | None ->
          let ty = { (ta.tty) with Bitvec.signed = cast_signed } in
          { te = T_cast ta; tty = ty; tloc = loc }
      | Some w ->
          let ty = Bitvec.ty ~width:(declared_width ctx loc "cast" w) ~signed:cast_signed in
          { te = T_cast ta; tty = ty; tloc = loc })
  | Concat (a, b) ->
      let ta = check_expr ctx a and tb = check_expr ctx b in
      {
        te = T_concat (ta, tb);
        tty = Bitvec.concat_result_ty ta.tty tb.tty;
        tloc = loc;
      }
  | Ternary (c, t, f) ->
      let tc = check_expr ctx c in
      let tt = check_expr ctx t and tf = check_expr ctx f in
      let ty = Bitvec.union_ty tt.tty tf.tty in
      let tt = coerce ctx loc ty tt and tf = coerce ctx loc ty tf in
      { te = T_ternary (tc, tt, tf); tty = ty; tloc = loc }
  | Call (name, args) -> check_call ctx loc name args
  | Array_init _ -> type_error loc "array initializer not allowed in expression context"

and check_ident ctx loc name =
  match lookup_local ctx name with
  | Some (tname, ty) -> { te = T_local tname; tty = ty; tloc = loc }
  | None -> (
      match List.find_opt (fun (f : field_info) -> f.fld_name = name) ctx.fields with
      | Some f -> { te = T_field name; tty = Bitvec.unsigned_ty f.fld_width; tloc = loc }
      | None -> (
          match List.assoc_opt name ctx.elab.params with
          | Some v -> { te = T_lit v; tty = Bitvec.typ v; tloc = loc }
          | None -> (
              match Elaborate.find_reg ctx.elab name with
              | Some r when r.elems = 1 && not r.rconst ->
                  { te = T_reg name; tty = r.rty; tloc = loc }
              | Some r when r.elems = 1 && r.rconst -> (
                  match r.rinit with
                  | Some a -> { te = T_lit a.(0); tty = r.rty; tloc = loc }
                  | None -> assert false)
              | Some _ -> type_error loc "register file '%s' must be indexed" name
              | None -> type_error ~code:"E0101" loc "unknown identifier '%s'" name)))

and check_index ctx loc base idx =
  match base.e with
  | Ident name when Elaborate.find_reg ctx.elab name <> None && lookup_local ctx name = None
                    && not (List.exists (fun (f : field_info) -> f.fld_name = name) ctx.fields) -> (
      let r = Option.get (Elaborate.find_reg ctx.elab name) in
      if r.elems = 1 then begin
        (* bit select on a scalar register *)
        let tb = check_expr ctx base in
        bit_select ctx loc tb idx
      end
      else begin
        let ti = check_expr ctx idx in
        let want = Bitvec.unsigned_ty (index_width r.elems) in
        ignore want;
        if r.rconst then { te = T_rom (name, ti); tty = r.rty; tloc = loc }
        else { te = T_regfile (name, ti); tty = r.rty; tloc = loc }
      end)
  | Ident name when Elaborate.find_space ctx.elab name <> None ->
      let s = Option.get (Elaborate.find_space ctx.elab name) in
      let ta = check_expr ctx idx in
      { te = T_mem { space = name; addr = ta; elems = 1 }; tty = s.elem_ty; tloc = loc }
  | _ ->
      (* bit select on an arbitrary value *)
      let tb = check_expr ctx base in
      bit_select ctx loc tb idx

and bit_select ctx loc (tb : texpr) idx =
  let ti = check_expr ctx idx in
  ignore ctx;
  { te = T_extract { value = tb; lo = ti; width = 1 }; tty = Bitvec.unsigned_ty 1; tloc = loc }

and check_range ctx loc base hi lo =
  match base.e with
  | Ident name when Elaborate.find_space ctx.elab name <> None -> (
      (* multi-element little-endian memory access MEM[addr+k:addr] *)
      let s = Option.get (Elaborate.find_space ctx.elab name) in
      match range_width ctx loc hi lo with
      | `Static (h, l) ->
          let elems = h - l + 1 in
          let ta = check_expr ctx { e = Lit { value = Bn.of_int l; forced = None }; eloc = loc } in
          {
            te = T_mem { space = name; addr = ta; elems };
            tty = Bitvec.unsigned_ty (elems * s.elem_ty.Bitvec.width);
            tloc = loc;
          }
      | `Dynamic ofs ->
          let elems = ofs + 1 in
          let ta = check_expr ctx lo in
          {
            te = T_mem { space = name; addr = ta; elems };
            tty = Bitvec.unsigned_ty (elems * s.elem_ty.Bitvec.width);
            tloc = loc;
          })
  | _ -> (
      let tb = check_expr ctx base in
      match range_width ctx loc hi lo with
      | `Static (h, l) ->
          if h >= tb.tty.Bitvec.width then
            type_error ~code:"E0104" loc "range [%d:%d] exceeds width of %s" h l (Bitvec.ty_to_string tb.tty);
          let tl = { te = T_lit (Bitvec.of_int (Bitvec.unsigned_ty 32) l); tty = Bitvec.unsigned_ty 32; tloc = loc } in
          { te = T_extract { value = tb; lo = tl; width = h - l + 1 }; tty = Bitvec.unsigned_ty (h - l + 1); tloc = loc }
      | `Dynamic ofs ->
          let tl = check_expr ctx lo in
          { te = T_extract { value = tb; lo = tl; width = ofs + 1 }; tty = Bitvec.unsigned_ty (ofs + 1); tloc = loc })

and check_binop ctx loc op a b =
  let ta = check_expr ctx a and tb = check_expr ctx b in
  let module B = Bitvec in
  let bool_t = B.bool_ty in
  match op with
  | Add -> { te = T_binop (op, ta, tb); tty = B.add_result_ty ta.tty tb.tty; tloc = loc }
  | Sub -> { te = T_binop (op, ta, tb); tty = B.sub_result_ty ta.tty tb.tty; tloc = loc }
  | Mul -> { te = T_binop (op, ta, tb); tty = B.mul_result_ty ta.tty tb.tty; tloc = loc }
  | Div -> { te = T_binop (op, ta, tb); tty = B.div_result_ty ta.tty tb.tty; tloc = loc }
  | Rem -> { te = T_binop (op, ta, tb); tty = B.rem_result_ty ta.tty tb.tty; tloc = loc }
  | Shl | Shr -> { te = T_binop (op, ta, tb); tty = ta.tty; tloc = loc }
  | And | Or | Xor ->
      let ty = B.bitwise_result_ty ta.tty tb.tty in
      { te = T_binop (op, ta, tb); tty = ty; tloc = loc }
  | Land | Lor -> { te = T_binop (op, ta, tb); tty = bool_t; tloc = loc }
  | Eq | Ne | Lt | Le | Gt | Ge -> { te = T_binop (op, ta, tb); tty = bool_t; tloc = loc }

and check_unop ctx loc op a =
  let ta = check_expr ctx a in
  match op with
  | Neg -> { te = T_unop (Neg, ta); tty = Bitvec.neg_result_ty ta.tty; tloc = loc }
  | Not -> { te = T_unop (Not, ta); tty = ta.tty; tloc = loc }
  | Lnot -> { te = T_unop (Lnot, ta); tty = Bitvec.bool_ty; tloc = loc }

and check_call ctx loc name args =
  match List.assoc_opt name ctx.tfuncs with
  | None -> type_error ~code:"E0105" loc "call to unknown function '%s'" name
  | Some f ->
      if List.length args <> List.length f.tf_params then
        type_error ~code:"E0105" loc "'%s' expects %d arguments, got %d" name (List.length f.tf_params)
          (List.length args);
      let targs =
        List.map2
          (fun arg (_, pty) ->
            let ta = check_expr ctx arg in
            coerce ctx loc pty ta)
          args f.tf_params
      in
      let ret =
        match f.tf_ret with
        | Some r -> r
        | None -> type_error ~code:"E0105" loc "void function '%s' used in expression" name
      in
      { te = T_call (name, targs); tty = ret; tloc = loc }

(* ---- statements ---- *)

let resolve_local_ty ctx loc ty =
  match ty with
  | Ty_int { signed; width } -> Bitvec.ty ~width:(declared_width ctx loc "local variable" width) ~signed
  | Ty_void -> type_error loc "local variable cannot be void"
  | Ty_alias a -> type_error loc "unresolved type alias '%s'" a

let rec check_stmt ctx (st : stmt) : tstmt list =
  let loc = st.sloc in
  match st.s with
  | Decl { ty; decls } ->
      List.map
        (fun (name, size, init) ->
          if size <> None then type_error loc "local arrays are not supported";
          let t = resolve_local_ty ctx loc ty in
          let tinit =
            Option.map
              (fun e ->
                let te = check_expr ctx e in
                coerce ctx loc t te)
              init
          in
          let tname = declare_local ctx loc name t in
          { ts = S_local_decl (tname, t, tinit); tsloc = loc })
        decls
  | Assign (A_eq, lv, rhs) ->
      let trhs = check_expr ctx rhs in
      [ check_assign ctx loc lv trhs ]
  | Assign (op, lv, rhs) ->
      (* compound assignment: a op= b  ==>  a = (typeof a)(a op b) *)
      let binop =
        match op with
        | A_add -> Add
        | A_sub -> Sub
        | A_mul -> Mul
        | A_and -> And
        | A_or -> Or
        | A_xor -> Xor
        | A_shl -> Shl
        | A_shr -> Shr
        | A_eq -> assert false
      in
      let tl = check_expr ctx lv in
      let trhs = check_binop ctx loc binop lv rhs in
      let wrapped = wrap_to tl.tty trhs loc in
      [ check_assign ctx loc lv wrapped ]
  | Incr lv ->
      let tl = check_expr ctx lv in
      let one = { e = Lit { value = Bn.one; forced = None }; eloc = loc } in
      let trhs = check_binop ctx loc Add lv one in
      [ check_assign ctx loc lv (wrap_to tl.tty trhs loc) ]
  | Decr lv ->
      let tl = check_expr ctx lv in
      let one = { e = Lit { value = Bn.one; forced = None }; eloc = loc } in
      let trhs = check_binop ctx loc Sub lv one in
      [ check_assign ctx loc lv (wrap_to tl.tty trhs loc) ]
  | Expr_stmt e -> (
      match e.e with
      | Call (name, args) -> (
          match List.assoc_opt name ctx.tfuncs with
          | Some { tf_ret = None; _ } ->
              (* void call: check arguments only *)
              let f = List.assoc name ctx.tfuncs in
              if List.length args <> List.length f.tf_params then
                type_error ~code:"E0105" loc "'%s' expects %d arguments" name (List.length f.tf_params);
              let targs =
                List.map2
                  (fun arg (_, pty) -> coerce ctx loc pty (check_expr ctx arg))
                  args f.tf_params
              in
              [ { ts = S_expr { te = T_call (name, targs); tty = Bitvec.bool_ty; tloc = loc }; tsloc = loc } ]
          | _ ->
              let te = check_expr ctx e in
              [ { ts = S_expr te; tsloc = loc } ])
      | _ ->
          let te = check_expr ctx e in
          [ { ts = S_expr te; tsloc = loc } ])
  | If (c, thn, els) ->
      let tc = check_expr ctx c in
      let tthn = in_scope ctx (fun () -> check_stmts ctx thn) in
      let tels = in_scope ctx (fun () -> check_stmts ctx els) in
      [ { ts = S_if (tc, tthn, tels); tsloc = loc } ]
  | While (cond, body) ->
      (* while (c) B  ==  for (; c; ) B *)
      check_stmt ctx { s = For (None, Some cond, None, body); sloc = loc }
  | Do_while (body, cond) ->
      (* do B while (c)  ==  B; while (c) B *)
      let first = in_scope ctx (fun () -> check_stmts ctx body) in
      let rest = check_stmt ctx { s = While (cond, body); sloc = loc } in
      first @ rest
  | Switch (scrutinee, arms) ->
      (* desugared to an if-else chain over a snapshot of the scrutinee;
         arms do not fall through *)
      let tscrut = check_expr ctx scrutinee in
      let tmp = fresh_name ctx "switch" in
      let decl = { ts = S_local_decl (tmp, tscrut.tty, Some tscrut); tsloc = loc } in
      let tmp_ref = { te = T_local tmp; tty = tscrut.tty; tloc = loc } in
      let default_arm =
        match List.filter (fun (v, _) -> v = None) arms with
        | [] -> []
        | [ (_, body) ] -> in_scope ctx (fun () -> check_stmts ctx body)
        | _ -> type_error loc "multiple default arms in switch"
      in
      let case_arms = List.filter (fun (v, _) -> v <> None) arms in
      let chain =
        List.fold_right
          (fun (v, body) els ->
            let tv = check_expr ctx (Option.get v) in
            let cond =
              { te = T_binop (Eq, tmp_ref, tv); tty = Bitvec.bool_ty; tloc = loc }
            in
            let tbody = in_scope ctx (fun () -> check_stmts ctx body) in
            [ { ts = S_if (cond, tbody, els); tsloc = loc } ])
          case_arms default_arm
      in
      decl :: chain
  | For (init, cond, step, body) ->
      in_scope ctx (fun () ->
          let tinit = match init with None -> [] | Some st -> check_stmt ctx st in
          let tcond =
            match cond with
            | Some c -> check_expr ctx c
            | None -> { te = T_lit (Bitvec.of_bool true); tty = Bitvec.bool_ty; tloc = loc }
          in
          let tstep = match step with None -> [] | Some st -> check_stmt ctx st in
          let tbody = in_scope ctx (fun () -> check_stmts ctx body) in
          [ { ts = S_for { init = tinit; cond = tcond; step = tstep; body = tbody }; tsloc = loc } ])
  | Spawn body ->
      if ctx.in_always then type_error ~code:"E0106" loc "spawn is not allowed inside an always-block";
      if ctx.fn_ret <> None then type_error ~code:"E0106" loc "spawn is not allowed inside a function";
      let tbody = in_scope ctx (fun () -> check_stmts ctx body) in
      [ { ts = S_spawn tbody; tsloc = loc } ]
  | Return e -> (
      match ctx.fn_ret with
      | None -> type_error ~code:"E0106" loc "return outside of a function"
      | Some None ->
          if e <> None then type_error ~code:"E0105" loc "void function cannot return a value";
          [ { ts = S_return None; tsloc = loc } ]
      | Some (Some rty) -> (
          match e with
          | None -> type_error ~code:"E0106" loc "function must return a value"
          | Some e ->
              let te = check_expr ctx e in
              [ { ts = S_return (Some (coerce ctx loc rty te)); tsloc = loc } ]))
  | Block body -> in_scope ctx (fun () -> [ { ts = S_if ({ te = T_lit (Bitvec.of_bool true); tty = Bitvec.bool_ty; tloc = loc }, check_stmts ctx body, []); tsloc = loc } ])

and check_stmts ctx stmts = List.concat_map (check_stmt ctx) stmts

and check_assign ctx loc lv (rhs : texpr) : tstmt =
  match lv.e with
  | Ident name -> (
      match lookup_local ctx name with
      | Some (tname, ty) -> { ts = S_assign_local (tname, coerce ctx loc ty rhs); tsloc = loc }
      | None -> (
          match Elaborate.find_reg ctx.elab name with
          | Some r when r.rconst -> type_error ~code:"E0103" loc "cannot assign to constant register '%s'" name
          | Some r when r.elems = 1 ->
              { ts = S_assign_reg (name, coerce ctx loc r.rty rhs); tsloc = loc }
          | Some _ -> type_error ~code:"E0103" loc "register file '%s' must be indexed in assignment" name
          | None ->
              if List.exists (fun (f : field_info) -> f.fld_name = name) ctx.fields then
                type_error ~code:"E0103" loc "cannot assign to encoding field '%s'" name
              else type_error ~code:"E0103" loc "unknown assignment target '%s'" name))
  | Index (({ e = Ident name; _ } as base), idx) -> (
      match Elaborate.find_reg ctx.elab name with
      | Some r when r.elems > 1 && lookup_local ctx name = None ->
          if r.rconst then type_error ~code:"E0103" loc "cannot assign to constant register file '%s'" name;
          let ti = check_expr ctx idx in
          { ts = S_assign_regfile (name, ti, coerce ctx loc r.rty rhs); tsloc = loc }
      | _ -> (
          match Elaborate.find_space ctx.elab name with
          | Some s ->
              let ta = check_expr ctx idx in
              {
                ts = S_assign_mem { space = name; addr = ta; value = coerce ctx loc s.elem_ty rhs; elems = 1 };
                tsloc = loc;
              }
          | None ->
              ignore base;
              type_error ~code:"E0103" loc "unsupported assignment target"))
  | Range (({ e = Ident name; _ } as base), hi, lo) -> (
      match Elaborate.find_space ctx.elab name with
      | Some s -> (
          match range_width ctx loc hi lo with
          | `Static (h, l) ->
              let elems = h - l + 1 in
              let ta = check_expr ctx { e = Lit { value = Bn.of_int l; forced = None }; eloc = loc } in
              let want = Bitvec.unsigned_ty (elems * s.elem_ty.Bitvec.width) in
              {
                ts = S_assign_mem { space = name; addr = ta; value = coerce ctx loc want rhs; elems };
                tsloc = loc;
              }
          | `Dynamic ofs ->
              let elems = ofs + 1 in
              let ta = check_expr ctx lo in
              let want = Bitvec.unsigned_ty (elems * s.elem_ty.Bitvec.width) in
              {
                ts = S_assign_mem { space = name; addr = ta; value = coerce ctx loc want rhs; elems };
                tsloc = loc;
              })
      | None ->
          ignore base;
          type_error ~code:"E0103" loc "bit-range assignment is only supported on address spaces")
  | _ -> type_error ~code:"E0103" loc "unsupported assignment target"

(* ---- encodings ---- *)

let check_encoding loc (enc : enc_elem list) =
  if enc = [] then type_error ~code:"E0107" loc "instruction has no encoding";
  let total = List.fold_left (fun n el -> n + match el with
      | Enc_lit v -> Bitvec.width v
      | Enc_field { hi; lo; _ } -> hi - lo + 1) 0 enc
  in
  let mask = ref Bn.zero and match_bits = ref Bn.zero in
  let fields : (string, field_segment list * int) Hashtbl.t = Hashtbl.create 4 in
  let pos = ref total in
  List.iter
    (fun el ->
      match el with
      | Enc_lit v ->
          let w = Bitvec.width v in
          pos := !pos - w;
          let ones = Bn.sub (Bn.pow2 w) Bn.one in
          mask := Bn.add !mask (Bn.shift_left ones !pos);
          match_bits := Bn.add !match_bits (Bn.shift_left (Bitvec.pattern v) !pos)
      | Enc_field { field; hi; lo } ->
          let w = hi - lo + 1 in
          if w <= 0 then type_error ~code:"E0107" loc "empty field range in encoding";
          pos := !pos - w;
          let seg = { instr_lo = !pos; fld_lo = lo; seg_len = w } in
          let segs, maxw =
            match Hashtbl.find_opt fields field with Some (s, m) -> (s, m) | None -> ([], 0)
          in
          Hashtbl.replace fields field (seg :: segs, max maxw (hi + 1)))
    enc;
  if !pos <> 0 then assert false;
  let field_infos =
    Hashtbl.fold
      (fun name (segs, w) acc -> { fld_name = name; fld_width = w; segments = segs } :: acc)
      fields []
  in
  ( total,
    Bitvec.of_bn (Bitvec.unsigned_ty total) !mask,
    Bitvec.of_bn (Bitvec.unsigned_ty total) !match_bits,
    field_infos )

(* ---- top level ---- *)

let check_function elab cenv tfuncs (f : func) : tfunc =
  let ret =
    match f.ret with
    | Ty_void -> None
    | ty -> Some (Elaborate.resolve_ty cenv f.floc ty)
  in
  let params =
    List.map (fun (ty, name) -> (name, Elaborate.resolve_ty cenv f.floc ty)) f.params
  in
  let ctx =
    {
      elab;
      cenv;
      fields = [];
      scopes = [ List.map (fun (n, ty) -> (n, (n, ty))) params ];
      fresh = 0;
      fn_ret = Some ret;
      in_always = false;
      tfuncs;
    }
  in
  let body = check_stmts ctx f.body in
  { tf_name = f.fname; tf_ret = ret; tf_params = params; tf_body = body }

let check_instruction elab cenv tfuncs (i : instruction) : tinstr =
  let enc_width, mask, match_bits, fields = check_encoding i.iloc i.encoding in
  let ctx =
    { elab; cenv; fields; scopes = [ [] ]; fresh = 0; fn_ret = None; in_always = false; tfuncs }
  in
  let behavior = check_stmts ctx i.behavior in
  { ti_name = i.iname; enc_width; mask; match_bits; fields; ti_behavior = behavior }

let check_always elab cenv tfuncs (a : always_block) : talways =
  let ctx =
    { elab; cenv; fields = []; scopes = [ [] ]; fresh = 0; fn_ret = None; in_always = true; tfuncs }
  in
  { ta_name = a.aname; ta_body = check_stmts ctx a.abody }

(* Type-check a whole elaborated unit, accumulating one diagnostic per
   failing function/instruction/always-block instead of aborting on the
   first. Elaboration errors raised during checking (width resolution,
   const-eval) are accumulated the same way. *)
let check_all (elab : Elaborate.elaborated) : (tunit, Diag.t list) result =
  let c = Diag.collector () in
  let cenv = { Elaborate.vars = elab.params } in
  let collect f =
    match f () with
    | v -> Some v
    | exception Type_error d -> Diag.add c d; None
    | exception Elaborate.Elab_error d -> Diag.add c d; None
  in
  let tfuncs =
    List.fold_left
      (fun acc f ->
        match collect (fun () -> check_function elab cenv acc f) with
        | Some tf -> acc @ [ (f.fname, tf) ]
        | None -> acc)
      [] elab.functions
  in
  let tinstrs =
    List.filter_map
      (fun i -> collect (fun () -> check_instruction elab cenv tfuncs i))
      elab.instructions
  in
  let talways =
    List.filter_map (fun a -> collect (fun () -> check_always elab cenv tfuncs a)) elab.always
  in
  if Diag.has_errors c then Error (Diag.to_list c)
  else
    Ok
      {
        tu_name = elab.ename;
        elab;
        tinstrs;
        talways;
        tfuncs = List.map snd tfuncs;
      }
