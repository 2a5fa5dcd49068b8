(* Lowering from the typed CoreDSL AST to the high-level IR (Figure 5b).

   The output is a flat SSA graph per instruction / always-block mixing the
   [coredsl] dialect (state access, bit manipulation, fields) with the
   [hwarith] dialect (bitwidth-aware arithmetic). On the way down we
   perform, like the paper's "pre-HLS upstream utilities":
   - full loop unrolling (loops must have compile-time trip counts),
   - function inlining,
   - if-conversion: branches become predicated state writes and muxes,
   - SSA construction for mutable locals,
   - merging of multiple writes to one architectural state element into a
     single predicated write (each SCAIE-V sub-interface may be used at
     most once per instruction).

   Ops lowered inside a spawn-block are tagged with the [spawn] attribute,
   mirroring Longnail's flattening with provenance markers (Section 4.1c). *)

module Bn = Bitvec.Bn
open Coredsl.Tast
open Mir

exception Lower_error of Diag.t

let lower_error ?span fmt =
  Format.kasprintf (fun m -> raise (Lower_error (Diag.make ?span ~code:"E0301" m))) fmt

(* A lowering invariant the typechecker should have made unreachable was
   violated: report which construct broke it instead of [assert false]. *)
let internal_error ?span fmt =
  Format.kasprintf
    (fun m ->
      raise
        (Lower_error
           (Diag.make ?span ~code:"E0903"
              ~notes:
                [ "this is a bug in the HLIR lowering, not in the source \
                   program" ]
              m)))
    fmt

let u w = Bitvec.unsigned_ty w
let bool_ty = Bitvec.bool_ty

(* pending (merged) write to one architectural state element *)
type pending = {
  p_operands : value list;  (* scalar: [value]; regfile: [index; value]; mem: [addr; value] *)
  p_pred : value option;  (* None = unconditional *)
  p_spawn : bool;
  p_elems : int;  (* memory only *)
  p_loc : Diag.span option;  (* span of the (last) originating write statement *)
}

type env = {
  b : builder;
  tu : tunit;
  mutable locals : (string * (value * int)) list;  (* value, declaration depth *)
  mutable consts : (string * Bitvec.t) list;  (* compile-time views of locals *)
  mutable fields : (string * value) list;
  mutable reg_cur : (string * value) list;  (* current value of scalar registers *)
  mutable pend_reg : (string * pending) list;  (* scalar register writes *)
  mutable pend_rf : (string * pending) list;  (* register file writes *)
  mutable pend_mem : (string * pending) list;  (* memory writes *)
  mutable preds : value list;  (* stack of branch conditions, innermost first *)
  mutable in_spawn : bool;
  mutable ret : (value option * value option) option;
      (* inlining: Some (value, pred); pred None = definitely returned *)
}

(* conjunction of all active branch conditions (None = unconditional);
   CSE later deduplicates the repeated and-chains *)
let rec conj env = function
  | [] -> None
  | [ c ] -> Some c
  | c :: rest -> (
      match conj env rest with None -> Some c | Some r -> Some (bool_and_fwd env c r))

and bool_and_fwd env a b = add_op1 env.b "hwarith.and" [ a; b ] Bitvec.bool_ty

let current_pred env = conj env env.preds

let constant env v = add_op1 env.b "hw.constant" [] (Bitvec.typ v) ~attrs:[ ("value", A_bv v) ]

let bool_and env a b = add_op1 env.b "hwarith.and" [ a; b ] bool_ty
let bool_or env a b = add_op1 env.b "hwarith.or" [ a; b ] bool_ty

let bool_not env a =
  add_op1 env.b "hwarith.icmp" [ a; constant env (Bitvec.of_bool false) ] bool_ty
    ~attrs:[ ("predicate", A_str "eq") ]

let mux env c t f =
  if t.vid = f.vid then t else add_op1 env.b "hwarith.mux" [ c; t; f ] t.vty



(* fold a new predicated write into an existing pending entry;
   later writes take priority *)
let merge_pending env (prev : pending option) operands pred spawn elems =
  (* the flushed set/store op inherits the span of the latest contributing
     write statement (flush happens after [cur_loc] is restored) *)
  let loc =
    match env.b.cur_loc with
    | Some _ as l -> l
    | None -> ( match prev with Some old -> old.p_loc | None -> None)
  in
  match prev with
  | None -> { p_operands = operands; p_pred = pred; p_spawn = spawn; p_elems = elems; p_loc = loc }
  | Some old -> (
      match pred with
      | None ->
          { p_operands = operands; p_pred = None; p_spawn = spawn || old.p_spawn; p_elems = elems;
            p_loc = loc }
      | Some p ->
          let merged = List.map2 (fun n o -> mux env p n o) operands old.p_operands in
          let pred' =
            match old.p_pred with None -> None | Some p0 -> Some (bool_or env p p0)
          in
          { p_operands = merged; p_pred = pred'; p_spawn = spawn || old.p_spawn; p_elems = elems;
            p_loc = loc })

(* ---- constant folding over typed expressions ---- *)

(* Evaluate [e] if it only involves literals and constant locals; used to
   drive loop unrolling and to fold addresses. *)
let rec try_const env (e : texpr) : Bitvec.t option =
  let open Coredsl.Ast in
  match e.te with
  | T_lit v -> Some v
  | T_local n -> List.assoc_opt n env.consts
  | T_cast a -> Option.map (Bitvec.cast e.tty) (try_const env a)
  | T_unop (Neg, a) -> Option.map Bitvec.neg (try_const env a)
  | T_unop (Not, a) -> Option.map Bitvec.lognot (try_const env a)
  | T_unop (Lnot, a) ->
      Option.map (fun v -> Bitvec.of_bool (Bitvec.is_zero v)) (try_const env a)
  | T_binop (op, a, b) -> (
      match (try_const env a, try_const env b) with
      | Some va, Some vb -> (
          try Some (Coredsl.Elaborate.const_binop e.tloc op va vb) with _ -> None)
      | _ -> None)
  | T_concat (a, b) -> (
      match (try_const env a, try_const env b) with
      | Some va, Some vb -> Some (Bitvec.concat va vb)
      | _ -> None)
  | T_extract { value; lo; width } -> (
      match (try_const env value, try_const env lo) with
      | Some v, Some l ->
          let l = Bitvec.to_int l in
          if l + width <= Bitvec.width v then Some (Bitvec.extract v ~hi:(l + width - 1) ~lo:l)
          else None
      | _ -> None)
  | T_ternary (c, t, f) -> (
      match try_const env c with
      | Some vc -> if Bitvec.to_bool vc then try_const env t else try_const env f
      | None -> None)
  | _ -> None

(* ---- expression lowering ---- *)

let spawn_attr env = if env.in_spawn then [ ("spawn", A_bool true) ] else []

(* convert an arbitrary-width value to a 1-bit truth value *)
let to_bool env (v : value) =
  if Bitvec.ty_equal v.vty bool_ty then v
  else
    add_op1 env.b "hwarith.icmp"
      [ v; constant env (Bitvec.zero v.vty) ]
      bool_ty
      ~attrs:[ ("predicate", A_str "ne") ]

(* Ops emitted for [e] itself carry [e]'s source span; recursive calls set
   (and restore) the ambient location for their own subtrees, so every op
   in the graph points at the smallest enclosing source expression. *)
let rec lower_expr env (e : texpr) : value =
  let saved = env.b.cur_loc in
  set_loc env.b (Some (Coredsl.Ast.span_of_loc e.tloc));
  let v = lower_expr_at env e in
  set_loc env.b saved;
  v

and lower_expr_at env (e : texpr) : value =
  let open Coredsl.Ast in
  match try_const env e with
  | Some v -> constant env (Bitvec.cast e.tty v)
  | None -> (
      match e.te with
      | T_lit v -> constant env v
      | T_local n -> (
          match List.assoc_opt n env.locals with
          | Some (v, _) -> v
          | None -> lower_error ?span:env.b.cur_loc "unbound local '%s' during lowering" n)
      | T_field n -> (
          match List.assoc_opt n env.fields with
          | Some v -> v
          | None -> lower_error ?span:env.b.cur_loc "unbound field '%s' during lowering" n)
      | T_reg name -> (
          match List.assoc_opt name env.reg_cur with
          | Some v -> v
          | None ->
              let v =
                add_op1 env.b "coredsl.get" [] e.tty
                  ~attrs:(("state", A_str name) :: spawn_attr env)
              in
              env.reg_cur <- (name, v) :: env.reg_cur;
              v)
      | T_regfile (name, idx) ->
          let vi = lower_expr env idx in
          add_op1 env.b "coredsl.get" [ vi ] e.tty
            ~attrs:(("state", A_str name) :: spawn_attr env)
      | T_rom (name, idx) ->
          let vi = lower_expr env idx in
          add_op1 env.b "coredsl.rom" [ vi ] e.tty ~attrs:[ ("state", A_str name) ]
      | T_mem { space; addr; elems } ->
          let va = lower_expr env addr in
          let pred = current_pred env in
          let operands = match pred with None -> [ va ] | Some p -> [ va; p ] in
          add_op1 env.b "coredsl.load" operands e.tty
            ~attrs:
              ([ ("space", A_str space); ("elems", A_int elems) ]
              @ (if pred <> None then [ ("has_pred", A_bool true) ] else [])
              @ spawn_attr env)
      | T_binop (op, a, b) -> lower_binop env e op a b
      | T_unop (Neg, a) ->
          let va = lower_expr env a in
          add_op1 env.b "hwarith.sub" [ constant env (Bitvec.zero a.tty); va ] e.tty
      | T_unop (Not, a) ->
          let va = lower_expr env a in
          add_op1 env.b "hwarith.not" [ va ] e.tty
      | T_unop (Lnot, a) ->
          let va = lower_expr env a in
          add_op1 env.b "hwarith.icmp"
            [ va; constant env (Bitvec.zero a.tty) ]
            bool_ty
            ~attrs:[ ("predicate", A_str "eq") ]
      | T_cast a ->
          let va = lower_expr env a in
          if Bitvec.ty_equal va.vty e.tty then va
          else add_op1 env.b "hwarith.cast" [ va ] e.tty
      | T_concat (a, b) ->
          let va = lower_expr env a and vb = lower_expr env b in
          add_op1 env.b "coredsl.concat" [ va; vb ] e.tty
      | T_extract { value; lo; width } ->
          let vv = lower_expr env value in
          let vl = lower_expr env lo in
          add_op1 env.b "coredsl.extract" [ vv; vl ] e.tty ~attrs:[ ("width", A_int width) ]
      | T_ternary (c, t, f) ->
          let vc = to_bool env (lower_expr env c) in
          let vt = lower_expr env t and vf = lower_expr env f in
          add_op1 env.b "hwarith.mux" [ vc; vt; vf ] e.tty
      | T_call (name, args) -> (
          let vargs = List.map (lower_expr env) args in
          match inline_call env name vargs with
          | Some v -> v
          | None -> lower_error ?span:env.b.cur_loc "void call '%s' in expression position" name))

and lower_binop env (e : texpr) op a b =
  let open Coredsl.Ast in
  match op with
  | Land ->
      let va = to_bool env (lower_expr env a) and vb = to_bool env (lower_expr env b) in
      bool_and env va vb
  | Lor ->
      let va = to_bool env (lower_expr env a) and vb = to_bool env (lower_expr env b) in
      bool_or env va vb
  | Eq | Ne | Lt | Le | Gt | Ge ->
      let va = lower_expr env a and vb = lower_expr env b in
      let pred =
        match op with
        | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
        | _ ->
            internal_error ?span:env.b.cur_loc
              "no icmp predicate for binary operator '%s'"
              (Coredsl.Tast.binop_name op)
      in
      add_op1 env.b "hwarith.icmp" [ va; vb ] bool_ty ~attrs:[ ("predicate", A_str pred) ]
  | Shl | Shr ->
      let va = lower_expr env a and vb = lower_expr env b in
      let name = if op = Shl then "hwarith.shl" else "hwarith.shr" in
      add_op1 env.b name [ va; vb ] e.tty
  | Add | Sub | Mul | Div | Rem | And | Or | Xor ->
      let va = lower_expr env a and vb = lower_expr env b in
      let name =
        match op with
        | Add -> "hwarith.add" | Sub -> "hwarith.sub" | Mul -> "hwarith.mul"
        | Div -> "hwarith.div" | Rem -> "hwarith.rem"
        | And -> "hwarith.band" | Or -> "hwarith.bor" | Xor -> "hwarith.bxor"
        | _ ->
            internal_error ?span:env.b.cur_loc
              "no hwarith op for binary operator '%s'"
              (Coredsl.Tast.binop_name op)
      in
      add_op1 env.b name [ va; vb ] e.tty

(* inline a function call; returns its value (None for void) *)
and inline_call env name args : value option =
  let f =
    match find_tfunc env.tu name with
    | Some f -> f
    | None -> lower_error ?span:env.b.cur_loc "unknown function '%s'" name
  in
  (* save caller context *)
  let saved_locals = env.locals and saved_consts = env.consts and saved_ret = env.ret in
  let depth = List.length env.preds in
  env.locals <- List.map2 (fun (pn, _) v -> (pn, (v, depth))) f.tf_params args;
  env.consts <- [];
  env.ret <- None;
  lower_stmts env f.tf_body;
  let result =
    match (env.ret, f.tf_ret) with
    | Some (Some v, _), Some _ -> Some v
    | None, None -> None
    | Some (None, _), None -> None
    | None, Some _ -> lower_error ?span:env.b.cur_loc "function '%s' did not return a value on all paths" name
    | Some (Some _, _), None | Some (None, _), Some _ -> lower_error ?span:env.b.cur_loc "return arity mismatch in '%s'" name
  in
  env.locals <- saved_locals;
  env.consts <- saved_consts;
  env.ret <- saved_ret;
  result

(* ---- statement lowering ---- *)

and assign_local env name (v : value) (cv : Bitvec.t option) =
  (* Only the branch conditions entered *after* the local's declaration
     guard the assignment; an assignment at the declaration's own depth is
     unconditional for that local (this keeps inlined function bodies and
     loop-local code mux-free). *)
  let depth = List.length env.preds in
  let decl_depth, old =
    match List.assoc_opt name env.locals with
    | Some (old, d) -> (d, Some old)
    | None -> (depth, None)
  in
  let extra =
    if depth > decl_depth then
      (* innermost-first stack: the first (depth - decl_depth) entries *)
      List.filteri (fun i _ -> i < depth - decl_depth) env.preds
    else []
  in
  let merged =
    match (conj env extra, old) with
    | None, _ | _, None -> v
    | Some p, Some old -> mux env p v old
  in
  env.locals <- (name, (merged, decl_depth)) :: List.remove_assoc name env.locals;
  (* constant view survives only assignments unconditional for this local *)
  match (extra, cv) with
  | [], Some c -> env.consts <- (name, c) :: List.remove_assoc name env.consts
  | _ -> env.consts <- List.remove_assoc name env.consts

and lower_stmt env (s : tstmt) : unit =
  let saved = env.b.cur_loc in
  set_loc env.b (Some (Coredsl.Ast.span_of_loc s.tsloc));
  lower_stmt_at env s;
  set_loc env.b saved

and lower_stmt_at env (s : tstmt) : unit =
  match s.ts with
  | S_local_decl (name, ty, init) ->
      let cv = Option.bind init (try_const env) in
      let v =
        match init with
        | Some e -> lower_expr env e
        | None -> constant env (Bitvec.zero ty)
      in
      let cv = match init with None -> Some (Bitvec.zero ty) | Some _ -> cv in
      (* declarations bind fresh at the current depth *)
      env.locals <- (name, (v, List.length env.preds)) :: List.remove_assoc name env.locals;
      (match cv with
      | Some c -> env.consts <- (name, c) :: List.remove_assoc name env.consts
      | None -> env.consts <- List.remove_assoc name env.consts)
  | S_assign_local (name, e) ->
      let cv = try_const env e in
      let v = lower_expr env e in
      assign_local env name v cv
  | S_assign_reg (name, e) ->
      let v = lower_expr env e in
      let pred = current_pred env in
      let prev = List.assoc_opt name env.pend_reg in
      let p = merge_pending env prev [ v ] pred env.in_spawn 0 in
      env.pend_reg <- (name, p) :: List.remove_assoc name env.pend_reg;
      (* subsequent reads in this behavior observe the (predicated) write *)
      let cur_read =
        match pred with
        | None -> v
        | Some pr -> (
            match List.assoc_opt name env.reg_cur with
            | Some old -> mux env pr v old
            | None ->
                let got =
                  add_op1 env.b "coredsl.get" [] v.vty ~attrs:[ ("state", A_str name) ]
                in
                mux env pr v got)
      in
      env.reg_cur <- (name, cur_read) :: List.remove_assoc name env.reg_cur
  | S_assign_regfile (name, idx, e) ->
      let vi = lower_expr env idx in
      let v = lower_expr env e in
      let prev = List.assoc_opt name env.pend_rf in
      let p = merge_pending env prev [ vi; v ] (current_pred env) env.in_spawn 0 in
      env.pend_rf <- (name, p) :: List.remove_assoc name env.pend_rf
  | S_assign_mem { space; addr; value; elems } ->
      let va = lower_expr env addr in
      let vv = lower_expr env value in
      let prev = List.assoc_opt space env.pend_mem in
      (match prev with
      | Some old when old.p_elems <> elems ->
          lower_error ?span:env.b.cur_loc "conflicting memory access widths on '%s'" space
      | _ -> ());
      let p = merge_pending env prev [ va; vv ] (current_pred env) env.in_spawn elems in
      env.pend_mem <- (space, p) :: List.remove_assoc space env.pend_mem
  | S_if (c, thn, els) -> (
      match try_const env c with
      | Some vc -> if Bitvec.to_bool vc then lower_stmts env thn else lower_stmts env els
      | None ->
          let vc = to_bool env (lower_expr env c) in
          let saved = env.preds in
          env.preds <- vc :: saved;
          lower_stmts env thn;
          env.preds <- bool_not env vc :: saved;
          lower_stmts env els;
          env.preds <- saved)
  | S_for { init; cond; step; body } ->
      lower_stmts env init;
      let fuel = ref 4096 in
      let rec iter () =
        match try_const env cond with
        | None -> lower_error ?span:env.b.cur_loc "loop condition is not compile-time constant; cannot unroll"
        | Some v when not (Bitvec.to_bool v) -> ()
        | Some _ ->
            decr fuel;
            if !fuel <= 0 then lower_error ?span:env.b.cur_loc "loop unrolling exceeded 4096 iterations";
            lower_stmts env body;
            lower_stmts env step;
            iter ()
      in
      iter ()
  | S_spawn body ->
      let saved = env.in_spawn in
      env.in_spawn <- true;
      lower_stmts env body;
      env.in_spawn <- saved
  | S_return e ->
      let v = Option.map (lower_expr env) e in
      (match env.ret with
      | Some (_, None) -> () (* already definitely returned; unreachable code *)
      | Some (old_v, Some p_old) ->
          (* first return wins where its predicate held *)
          let merged =
            match (old_v, v) with
            | Some ov, Some nv -> Some (mux env p_old ov nv)
            | None, None -> None
            | _ -> lower_error ?span:env.b.cur_loc "inconsistent return arity"
          in
          let p' =
            match current_pred env with
            | None -> None
            | Some p -> Some (bool_or env p_old p)
          in
          env.ret <- Some (merged, p')
      | None -> env.ret <- Some (v, current_pred env))
  | S_expr e -> (
      match e.te with
      | T_call (name, args) ->
          let vargs = List.map (lower_expr env) args in
          ignore (inline_call env name vargs)
      | _ -> ignore (lower_expr env e))

and lower_stmts env stmts = List.iter (lower_stmt env) stmts

(* ---- graph construction ---- *)

let flush_pending env =
  let emit_set kind name (p : pending) extra_attrs =
    let operands =
      match p.p_pred with None -> p.p_operands | Some pr -> p.p_operands @ [ pr ]
    in
    let attrs =
      [ ("state", A_str name) ]
      @ extra_attrs
      @ (if p.p_pred <> None then [ ("has_pred", A_bool true) ] else [])
      @ if p.p_spawn then [ ("spawn", A_bool true) ] else []
    in
    ignore (add_op env.b kind operands [] ~attrs ?loc:p.p_loc)
  in
  List.iter (fun (name, p) -> emit_set "coredsl.set" name p []) (List.rev env.pend_reg);
  List.iter (fun (name, p) -> emit_set "coredsl.set" name p []) (List.rev env.pend_rf);
  List.iter
    (fun (name, p) ->
      let operands =
        match p.p_pred with None -> p.p_operands | Some pr -> p.p_operands @ [ pr ]
      in
      let attrs =
        [ ("space", A_str name); ("elems", A_int p.p_elems) ]
        @ (if p.p_pred <> None then [ ("has_pred", A_bool true) ] else [])
        @ if p.p_spawn then [ ("spawn", A_bool true) ] else []
      in
      ignore (add_op env.b "coredsl.store" operands [] ~attrs ?loc:p.p_loc))
    (List.rev env.pend_mem)

let fresh_env tu b =
  {
    b;
    tu;
    locals = [];
    consts = [];
    fields = [];
    reg_cur = [];
    pend_reg = [];
    pend_rf = [];
    pend_mem = [];
    preds = [];
    in_spawn = false;
    ret = None;
  }

(* Lower one instruction to a high-level graph. Encoding fields become
   [coredsl.field] ops. *)
let lower_instruction (tu : tunit) (ti : tinstr) : graph =
  let b = builder () in
  let env = fresh_env tu b in
  env.fields <-
    List.map
      (fun (f : field_info) ->
        let v =
          add_op1 b "coredsl.field" [] (u f.fld_width) ~attrs:[ ("name", A_str f.fld_name) ]
            ~hint:f.fld_name
        in
        (f.fld_name, v))
      ti.fields;
  lower_stmts env ti.ti_behavior;
  flush_pending env;
  finish b ~name:ti.ti_name ~kind:`Instruction
    ~attrs:
      [
        ("mask", A_bv ti.mask);
        ("match", A_bv ti.match_bits);
        ("enc_width", A_int ti.enc_width);
      ]
    ()

(* Lower an always-block: same machinery, no fields, no spawn. *)
let lower_always (tu : tunit) (ta : talways) : graph =
  let b = builder () in
  let env = fresh_env tu b in
  lower_stmts env ta.ta_body;
  flush_pending env;
  finish b ~name:ta.ta_name ~kind:`Always ()
