(* Tree-walking evaluator for typed CoreDSL behaviors: the test oracle for
   the staged evaluator in Coredsl.Interp. Every execution walks the typed
   AST, looks locals up by name and computes on Bitvec values. *)

module Interp = Coredsl.Interp
open Coredsl.Ast
open Coredsl.Tast

let runtime_error loc fmt =
  Format.kasprintf (fun m -> raise (Interp.Runtime_error (loc, m))) fmt

(* little-endian multi-element write, element by element through [write_elem] *)
let write_elems (st : Interp.state) write_elem name addr elems v =
  let s =
    match Coredsl.Elaborate.find_space st.unit_.elab name with
    | Some s -> s
    | None -> runtime_error no_loc "no address space '%s'" name
  in
  let ew = s.elem_ty.Bitvec.width in
  for k = 0 to elems - 1 do
    let piece = Bitvec.extract (Bitvec.cast (Bitvec.unsigned_ty (elems * ew)) v) ~hi:(((k + 1) * ew) - 1) ~lo:(k * ew) in
    write_elem name (addr + k) piece
  done

type frame = {
  locals : (string, Bitvec.t) Hashtbl.t;
  fields : (string * Bitvec.t) list;  (* decoded encoding fields *)
  mem : Interp.mem_port option;  (* where memory accesses go; committed memory if [None] *)
}

exception Return_exc of Bitvec.t option

let rec eval st (fr : frame) (e : texpr) : Bitvec.t =
  match e.te with
  | T_lit v -> v
  | T_local name -> (
      match Hashtbl.find_opt fr.locals name with
      | Some v -> v
      | None -> runtime_error e.tloc "unbound local '%s'" name)
  | T_field name -> (
      match List.assoc_opt name fr.fields with
      | Some v -> v
      | None -> runtime_error e.tloc "unbound encoding field '%s'" name)
  | T_reg name -> Interp.read_reg st name
  | T_regfile (name, idx) -> Interp.read_regfile st name (Bitvec.to_int (eval st fr idx))
  | T_rom (name, idx) -> Interp.read_regfile st name (Bitvec.to_int (eval st fr idx))
  | T_mem { space; addr; elems } ->
      let a = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr addr)) in
      Bitvec.cast e.tty (Interp.read_mem ?mem:fr.mem st space a elems)
  | T_binop (op, a, b) -> eval_binop st fr e.tloc op a b
  | T_unop (op, a) -> (
      let va = eval st fr a in
      match op with
      | Neg -> Bitvec.neg va
      | Not -> Bitvec.lognot va
      | Lnot -> Bitvec.of_bool (Bitvec.is_zero va))
  | T_cast a -> Bitvec.cast e.tty (eval st fr a)
  | T_concat (a, b) -> Bitvec.concat (eval st fr a) (eval st fr b)
  | T_extract { value; lo; width } ->
      let v = eval st fr value in
      let l = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr lo)) in
      if l + width > Bitvec.width v then
        runtime_error e.tloc "extract [%d+:%d] out of range for width %d" l width (Bitvec.width v);
      Bitvec.extract v ~hi:(l + width - 1) ~lo:l
  | T_ternary (c, t, f) -> if Bitvec.to_bool (eval st fr c) then eval st fr t else eval st fr f
  | T_call (name, args) -> (
      match call st fr e name args with
      | Some v -> v
      | None -> runtime_error e.tloc "void function '%s' in expression" name)

and call st fr (e : texpr) name args =
  let f =
    match find_tfunc st.Interp.unit_ name with
    | Some f -> f
    | None -> runtime_error e.tloc "unknown function '%s'" name
  in
  call_function st fr.mem f (List.map (eval st fr) args)

and eval_binop st fr loc op a b =
  let module B = Bitvec in
  let va = eval st fr a in
  match op with
  | Land -> B.of_bool (B.to_bool va && B.to_bool (eval st fr b))
  | Lor -> B.of_bool (B.to_bool va || B.to_bool (eval st fr b))
  | _ -> (
      let vb = eval st fr b in
      match op with
      | Add -> B.add va vb
      | Sub -> B.sub va vb
      | Mul -> B.mul va vb
      | Div ->
          if B.is_zero vb then runtime_error loc "division by zero" else B.div va vb
      | Rem -> if B.is_zero vb then runtime_error loc "remainder by zero" else B.rem va vb
      | Shl -> B.cast (B.typ va) (B.shift_left va (B.to_int vb))
      | Shr -> B.cast (B.typ va) (B.shift_right va (B.to_int vb))
      | And -> B.logand va vb
      | Or -> B.logor va vb
      | Xor -> B.logxor va vb
      | Eq -> B.of_bool (B.eq va vb)
      | Ne -> B.of_bool (B.ne va vb)
      | Lt -> B.of_bool (B.lt va vb)
      | Le -> B.of_bool (B.le va vb)
      | Gt -> B.of_bool (B.gt va vb)
      | Ge -> B.of_bool (B.ge va vb)
      | Land | Lor -> assert false)

and exec_stmt st fr (s : tstmt) : unit =
  match s.ts with
  | S_local_decl (name, ty, init) ->
      let v = match init with Some e -> eval st fr e | None -> Bitvec.zero ty in
      Hashtbl.replace fr.locals name (Bitvec.cast ty v)
  | S_assign_local (name, e) ->
      let v = eval st fr e in
      Hashtbl.replace fr.locals name v
  | S_assign_reg (name, e) -> Interp.write_reg st name (eval st fr e)
  | S_assign_regfile (name, idx, e) ->
      let i = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr idx)) in
      Interp.write_regfile st name i (eval st fr e)
  | S_assign_mem { space; addr; value; elems } ->
      let a = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr addr)) in
      let write =
        match fr.mem with Some p -> p.write_elem | None -> Interp.write_mem_elem st
      in
      write_elems st write space a elems (eval st fr value)
  | S_if (c, thn, els) ->
      if Bitvec.to_bool (eval st fr c) then exec_stmts st fr thn else exec_stmts st fr els
  | S_for { init; cond; step; body } ->
      exec_stmts st fr init;
      let fuel = ref 1_000_000 in
      while Bitvec.to_bool (eval st fr cond) do
        decr fuel;
        if !fuel <= 0 then runtime_error s.tsloc "for-loop exceeded iteration limit";
        exec_stmts st fr body;
        exec_stmts st fr step
      done
  | S_spawn body ->
      (* architecturally, a spawn block has the same final-state semantics
         as inline execution; timing differences only exist in hardware *)
      exec_stmts st fr body
  | S_return e -> raise (Return_exc (Option.map (eval st fr) e))
  | S_expr ({ te = T_call (name, args); _ } as e) -> ignore (call st fr e name args)
  | S_expr e -> ignore (eval st fr e)

and exec_stmts st fr stmts = List.iter (exec_stmt st fr) stmts

and call_function st mem (f : tfunc) (args : Bitvec.t list) : Bitvec.t option =
  let locals = Hashtbl.create 8 in
  List.iter2 (fun (name, ty) v -> Hashtbl.replace locals name (Bitvec.cast ty v)) f.tf_params args;
  let fr = { locals; fields = []; mem } in
  try
    exec_stmts st fr f.tf_body;
    None
  with Return_exc v -> v

(* Execute one instruction's behavior for a concrete instruction word,
   its memory accesses through [mem] if given; afterwards
   [st.pc_written] tells whether the behavior wrote the PC. *)
let exec_instr ?mem (st : Interp.state) (ti : tinstr) ~(instr_word : Bitvec.t) =
  st.pc_written <- false;
  let fields = List.map (fun f -> (f.fld_name, Interp.decode_field instr_word f)) ti.fields in
  let fr = { locals = Hashtbl.create 8; fields; mem } in
  exec_stmts st fr ti.ti_behavior

(* Execute one evaluation of an always-block (one clock tick). *)
let exec_always st (ta : talways) =
  let fr = { locals = Hashtbl.create 8; fields = []; mem = None } in
  exec_stmts st fr ta.ta_body
