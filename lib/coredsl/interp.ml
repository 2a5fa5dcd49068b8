(* Staged evaluator for typed CoreDSL behaviors: the golden model (see
   interp.mli). Each body is staged once per state into closures; the
   tree-walker it must agree with is a test oracle in oracle/. *)

module Bn = Bitvec.Bn
open Ast
open Tast

exception Runtime_error of loc * string

let runtime_error loc fmt = Format.kasprintf (fun m -> raise (Runtime_error (loc, m))) fmt

(* ---- decode table ---- *)

(* Encodings and words up to this width decode through native-int tables;
   wider ones keep the linear [matches] scan. *)
let table_width = Bitvec.native_width

(* The instructions whose encodings share a width and a fixed-bit mask,
   keyed by their fixed bits. Each entry keeps its index in [tinstrs] so
   a probe over every group can return the earliest match, as
   [List.find_opt] would. *)
type group = { g_width : int; g_mask : int; g_table : (int, int * tinstr) Hashtbl.t }

type decoder = { groups : group array; wide : tinstr list }

let make_decoder (tinstrs : tinstr list) =
  let groups = ref [] and wide = ref [] in
  List.iteri
    (fun i ti ->
      if ti.enc_width > table_width then wide := ti :: !wide
      else begin
        let mask = Bitvec.to_int ti.mask in
        let g =
          match List.find_opt (fun g -> g.g_width = ti.enc_width && g.g_mask = mask) !groups with
          | Some g -> g
          | None ->
              let g = { g_width = ti.enc_width; g_mask = mask; g_table = Hashtbl.create 16 } in
              groups := g :: !groups;
              g
        in
        let key = Bitvec.to_int ti.match_bits in
        (* an earlier instruction with the same fixed bits wins *)
        if not (Hashtbl.mem g.g_table key) then Hashtbl.add g.g_table key (i, ti)
      end)
    tinstrs;
  { groups = Array.of_list (List.rev !groups); wide = List.rev !wide }

type mem_port = {
  read_elem : string -> int -> Bitvec.t;
  write_elem : string -> int -> Bitvec.t -> unit;
}

(* A frame of staged code. A value whose static type fits [table_width]
   bits is a native int (the numeric value: unsigned in [0, 2^w), signed
   sign-extended), a wider one a Bitvec. Locals and encoding fields are
   slots; slot 0 of either array holds a function's return value. *)
type env = {
  ints : int array;
  wides : Bitvec.t array;
  mem : mem_port option;  (* where memory accesses go; committed memory if [None] *)
  mutable returned : bool;  (* a function body executed [return e] *)
}

type body = { n_ints : int; n_wides : int; fields : env -> Bitvec.t -> unit; run : env -> unit }

(* The bodies staged so far: instructions and always-blocks by name,
   checked physically as names may repeat; functions by name. *)
type staged = {
  instrs : (string, tinstr * body) Hashtbl.t;
  always : (string, talways * body) Hashtbl.t;
  funcs : (string, body Lazy.t) Hashtbl.t;
}

type state = {
  unit_ : tunit;
  regs : (string, Bitvec.t array) Hashtbl.t;
  mems : (string, (int, Bitvec.t) Hashtbl.t) Hashtbl.t;
  decoder : decoder;
  pc_reg : Bitvec.t array option;  (* the [is_pc] register, if any *)
  mutable pc_written : bool;  (* the last [exec_instr] wrote the PC *)
  staged : staged;
}

let create (tu : tunit) =
  let regs = Hashtbl.create 8 and mems = Hashtbl.create 2 in
  List.iter
    (fun (r : Elaborate.reg) ->
      let a = Array.make r.elems (Bitvec.zero r.rty) in
      Option.iter (fun init -> Array.blit init 0 a 0 (Array.length init)) r.rinit;
      Hashtbl.replace regs r.rname a)
    tu.elab.regs;
  List.iter
    (fun (s : Elaborate.addr_space) -> Hashtbl.replace mems s.sname (Hashtbl.create 64))
    tu.elab.spaces;
  let pc_reg =
    List.find_map
      (fun (r : Elaborate.reg) -> if r.is_pc then Hashtbl.find_opt regs r.rname else None)
      tu.elab.regs
  in
  let staged = { instrs = Hashtbl.create 16; always = Hashtbl.create 2; funcs = Hashtbl.create 4 } in
  { unit_ = tu; regs; mems; decoder = make_decoder tu.tinstrs; pc_reg; pc_written = false; staged }

(* ---- state accessors ---- *)

let reg_array st name =
  match Hashtbl.find_opt st.regs name with
  | Some a -> a
  | None -> runtime_error no_loc "no register '%s'" name

let read_reg st name = (reg_array st name).(0)

(* a register write, cast to the register's type *)
let set_reg st a idx v =
  a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) v;
  match st.pc_reg with Some pc when pc == a -> st.pc_written <- true | _ -> ()

let write_reg st name v = set_reg st (reg_array st name) 0 v

let check_index a idx name =
  if idx < 0 || idx >= Array.length a then
    runtime_error no_loc "index %d out of range for register file %s" idx name

let read_regfile st name idx =
  let a = reg_array st name in
  check_index a idx name;
  a.(idx)

let write_regfile st name idx v =
  let a = reg_array st name in
  check_index a idx name;
  a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) v

let space_info st name =
  match Elaborate.find_space st.unit_.elab name with
  | Some s -> s
  | None -> runtime_error no_loc "no address space '%s'" name

(* The element reads of space [name]: through the port if given, else
   from the state's memory, failing at the first read if it has none. *)
let elem_reader st name =
  let local =
    match (Elaborate.find_space st.unit_.elab name, Hashtbl.find_opt st.mems name) with
    | Some s, Some t ->
        let zero = Bitvec.zero s.elem_ty in
        fun a -> Option.value (Hashtbl.find_opt t a) ~default:zero
    | _ -> fun _ -> runtime_error no_loc "no address space '%s'" name
  in
  function Some p -> p.read_elem name | None -> local

let read_mem_elem st name addr = elem_reader st name None addr

let write_mem_elem st name addr v =
  let s = space_info st name in
  match Hashtbl.find_opt st.mems name with
  | Some t -> Hashtbl.replace t addr (Bitvec.cast s.elem_ty v)
  | None -> runtime_error no_loc "no address space '%s'" name

let mask w = (1 lsl w) - 1

(* the unsigned bit pattern of a value of at most [table_width] bits *)
let bits x = Bitvec.to_int x land mask (Bitvec.width x)

(* little-endian multi-element read, the element at [addr + elems - 1]
   (the MSB) first; concatenated on native ints while they fit *)
let read_elems elem addr elems =
  let v = ref (elem (addr + elems - 1)) in
  for k = elems - 2 downto 0 do
    let e = elem (addr + k) in
    let w = Bitvec.width !v + Bitvec.width e in
    v :=
      if w <= table_width then Bitvec.of_int (Bitvec.unsigned_ty w) ((bits !v lsl Bitvec.width e) lor bits e)
      else Bitvec.concat !v e
  done;
  !v

let read_mem ?mem st name addr elems = read_elems (elem_reader st name mem) addr elems

(* little-endian multi-element write, element by element through [write_elem] *)
let write_elems st write_elem name addr elems v =
  let s = space_info st name in
  let ew = s.elem_ty.Bitvec.width in
  for k = 0 to elems - 1 do
    let piece = Bitvec.extract (Bitvec.cast (Bitvec.unsigned_ty (elems * ew)) v) ~hi:(((k + 1) * ew) - 1) ~lo:(k * ew) in
    write_elem name (addr + k) piece
  done

let write_mem st = write_elems st (write_mem_elem st)

(* Extract the value of an encoding field from an instruction word. *)
let decode_field (instr_word : Bitvec.t) (f : field_info) : Bitvec.t =
  let u = Bitvec.unsigned_ty f.fld_width in
  List.fold_left
    (fun v seg ->
      let bits = Bitvec.extract instr_word ~hi:(seg.instr_lo + seg.seg_len - 1) ~lo:seg.instr_lo in
      Bitvec.logor v (Bitvec.cast u (Bitvec.shift_left (Bitvec.cast u bits) seg.fld_lo)))
    (Bitvec.zero u) f.segments

(* the same over the bit pattern of a native-int word *)
let decode_field_int (f : field_info) word =
  List.fold_left (fun v s -> v lor (((word lsr s.instr_lo) land mask s.seg_len) lsl s.fld_lo)) 0 f.segments
  land mask f.fld_width

let matches (ti : tinstr) (instr_word : Bitvec.t) =
  Bitvec.width instr_word = ti.enc_width
  && Bitvec.equal_value (Bitvec.logand instr_word ti.mask) ti.match_bits

(* ---- staging ---- *)

(* staged code of an expression, by the representation of its type *)
type code = I of (env -> int) | W of (env -> Bitvec.t)

let narrow (t : Bitvec.ty) = t.width <= table_width
let to_i = function I f -> f | W f -> fun env -> Bitvec.to_int (f env)
let to_w ty = function W f -> f | I f -> fun env -> Bitvec.of_int ty (f env)
let to_b = function I f -> (fun env -> f env <> 0) | W f -> fun env -> Bitvec.to_bool (f env)
let of_w ty f = if narrow ty then I (fun env -> Bitvec.to_int (f env)) else W f

(* an index or address: the unsigned pattern of a value of type [ty] *)
let to_pat (ty : Bitvec.ty) = function
  | I f -> if ty.signed then fun env -> f env land mask ty.width else f
  | W f -> fun env -> Bitvec.to_int (Bitvec.reinterpret_sign false (f env))

(* CoreDSL's cast of code of type [src] to [ty] *)
let cast ty src = function
  | I f when narrow ty -> if Bitvec.ty_equal src ty then I f else I (fun env -> Bitvec.wrap_native ty (f env))
  | I f -> W (fun env -> Bitvec.of_int ty (f env))
  | W f -> of_w ty (fun env -> Bitvec.cast ty (f env))

(* a comparison operator as a test of a [compare] result *)
let holds op : int -> bool =
  match op with Eq -> ( = ) 0 | Ne -> ( <> ) 0 | Lt -> ( > ) 0 | Le -> ( >= ) 0 | Gt -> ( < ) 0 | _ -> ( <= ) 0

let by_zero loc op = runtime_error loc (if op = Div then "division by zero" else "remainder by zero")

(* a binary operator on native ints, for a left operand of type [ta] and
   a result that fits *)
let int_op loc op (ta : Bitvec.ty) : int -> int -> int =
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div | Rem -> fun x y -> if y = 0 then by_zero loc op else if op = Div then x / y else x mod y
  | Shl ->
      fun x k ->
        if k < 0 then invalid_arg "Bitvec.shift_left: negative amount"
        else if k >= ta.width then 0
        else Bitvec.wrap_native ta (x lsl k)
  | Shr -> fun x k -> if k < 0 then invalid_arg "Bitvec.shift_right: negative amount" else x asr min k table_width
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | _ -> let h = holds op in fun x y -> Bool.to_int (h (Int.compare x y))

(* the same on Bitvec values *)
let bv_op loc op : Bitvec.t -> Bitvec.t -> Bitvec.t =
  let module B = Bitvec in
  match op with
  | Add -> B.add
  | Sub -> B.sub
  | Mul -> B.mul
  | Div | Rem -> fun x y -> if B.is_zero y then by_zero loc op else if op = Div then B.div x y else B.rem x y
  | Shl -> fun x y -> B.cast (B.typ x) (B.shift_left x (B.to_int y))
  | Shr -> fun x y -> B.cast (B.typ x) (B.shift_right x (B.to_int y))
  | And -> B.logand
  | Or -> B.logor
  | Xor -> B.logxor
  | _ -> let h = holds op in fun x y -> B.of_bool (h (B.compare_value x y))

exception Return

(* the slot of a local not yet written in this frame: min_int is no
   narrow value, [unbound] a Bitvec no staged code produces *)
let unbound = Bitvec.zero Bitvec.bool_ty

(* A body's frame slots, allocated at staging: one per local name and
   representation, one per encoding field. *)
type layout = { slots : (string * [ `Int | `Wide | `Field ], int) Hashtbl.t; mutable ni : int; mutable nw : int }

type ctx = { st : state; lay : layout; fields : field_info list }

let new_layout () = { slots = Hashtbl.create 8; ni = 1; nw = 1 }

let slot lay key ~wide =
  if not (Hashtbl.mem lay.slots key) then begin
    Hashtbl.add lay.slots key (if wide then lay.nw else lay.ni);
    if wide then lay.nw <- lay.nw + 1 else lay.ni <- lay.ni + 1
  end;
  Hashtbl.find lay.slots key

let local_slot lay name ty = slot lay (name, if narrow ty then `Int else `Wide) ~wide:(not (narrow ty))

(* a store of code, evaluated in frame [src], into slot [i] of [dst] *)
let assign i = function
  | I f -> fun src dst -> dst.ints.(i) <- f src
  | W f -> fun src dst -> dst.wides.(i) <- f src

(* a function's parameters take its first slots *)
let param_layout (f : tfunc) =
  let lay = new_layout () in
  List.iter (fun (name, ty) -> ignore (local_slot lay name ty)) f.tf_params;
  lay

let frame b mem = { ints = Array.make b.n_ints min_int; wides = Array.make b.n_wides unbound; mem; returned = false }

let rec expr cx (e : texpr) : code =
  let ty = e.tty in
  match e.te with
  | T_lit v -> if narrow ty then (let n = Bitvec.to_int v in I (fun _ -> n)) else W (fun _ -> v)
  | T_local name ->
      let i = local_slot cx.lay name ty and unbound_local () = runtime_error e.tloc "unbound local '%s'" name in
      if narrow ty then I (fun env -> let v = env.ints.(i) in if v = min_int then unbound_local () else v)
      else W (fun env -> let v = env.wides.(i) in if v == unbound then unbound_local () else v)
  | T_field name when List.exists (fun f -> f.fld_name = name) cx.fields ->
      let i = slot cx.lay (name, `Field) ~wide:(not (narrow ty)) in
      if narrow ty then I (fun env -> env.ints.(i)) else W (fun env -> env.wides.(i))
  | T_field name -> I (fun _ -> runtime_error e.tloc "unbound encoding field '%s'" name)
  | T_reg name ->
      let a = lazy (reg_array cx.st name) in
      of_w ty (fun _ -> (Lazy.force a).(0))
  | T_regfile (name, idx) | T_rom (name, idx) ->
      let fi = to_i (expr cx idx) and a = lazy (reg_array cx.st name) in
      of_w ty (fun env ->
          let i = fi env in
          check_index (Lazy.force a) i name;
          (Lazy.force a).(i))
  | T_mem { space; addr; elems } ->
      let fa = to_pat addr.tty (expr cx addr) and elem = elem_reader cx.st space in
      of_w ty (fun env -> Bitvec.cast ty (read_elems (elem env.mem) (fa env) elems))
  | T_binop (((Land | Lor) as op), a, b) ->
      let fa = to_b (expr cx a) and fb = to_b (expr cx b) in
      I (if op = Land then fun env -> Bool.to_int (fa env && fb env) else fun env -> Bool.to_int (fa env || fb env))
  | T_binop (op, a, b) -> (
      match (expr cx a, expr cx b) with
      | I fa, I fb when narrow ty ->
          let f = int_op e.tloc op a.tty in
          I (fun env -> let x = fa env in f x (fb env))
      | ca, cb ->
          let f = bv_op e.tloc op and fa = to_w a.tty ca and fb = to_w b.tty cb in
          of_w ty (fun env -> let x = fa env in f x (fb env)))
  | T_unop (op, a) -> (
      match (op, expr cx a) with
      | Lnot, ca -> let f = to_b ca in I (fun env -> if f env then 0 else 1)
      | Neg, I f when narrow ty -> I (fun env -> - f env)
      | Not, I f when narrow ty -> let m = if ty.signed then -1 else mask ty.width in I (fun env -> f env lxor m)
      | _, ca ->
          let f = to_w a.tty ca and g = if op = Neg then Bitvec.neg else Bitvec.lognot in
          of_w ty (fun env -> g (f env)))
  | T_cast a -> cast ty a.tty (expr cx a)
  | T_concat (a, b) -> (
      (* the low part first, the order the tree-walker evaluates Bitvec.concat's arguments in *)
      match (expr cx a, expr cx b) with
      | I fa, I fb when narrow ty ->
          let ma = mask a.tty.width and mb = mask b.tty.width and wb = b.tty.width in
          I (fun env -> let y = fb env in ((fa env land ma) lsl wb) lor (y land mb))
      | ca, cb ->
          let fa = to_w a.tty ca and fb = to_w b.tty cb in
          of_w ty (fun env -> let y = fb env in Bitvec.concat (fa env) y))
  | T_extract { value; lo; width } -> (
      let fl = to_pat lo.tty (expr cx lo) and wv = value.tty.width in
      let at env =
        let l = fl env in
        if l + width > wv then runtime_error e.tloc "extract [%d+:%d] out of range for width %d" l width wv;
        l
      in
      let extract v l = Bitvec.extract v ~hi:(l + width - 1) ~lo:l in
      match expr cx value with
      | I fv ->
          (* l >= wv after [at] only if l + width overflowed, which Bitvec rejects *)
          I (fun env ->
              let v = fv env in
              let l = at env in
              if l < wv then ((v land mask wv) lsr l) land mask width else bits (extract (Bitvec.of_int value.tty v) l))
      | W fv -> of_w ty (fun env -> let v = fv env in extract v (at env)))
  | T_ternary (c, t, f) ->
      let fc = to_b (expr cx c) and ct = expr cx t and cf = expr cx f in
      let pick ft ff env = if fc env then ft env else ff env in
      if narrow ty then I (pick (to_i ct) (to_i cf)) else W (pick (to_w t.tty ct) (to_w f.tty cf))
  | T_call (name, args) ->
      let call = call cx e name args in
      let call env =
        let fr = call env in
        if not fr.returned then runtime_error e.tloc "void function '%s' in expression" name;
        fr
      in
      if narrow ty then I (fun env -> (call env).ints.(0)) else W (fun env -> (call env).wides.(0))

(* a call returns the callee's frame, whose slot 0 holds a returned value *)
and call cx (e : texpr) name args : env -> env =
  match find_tfunc cx.st.unit_ name with
  | None -> fun _ -> runtime_error e.tloc "unknown function '%s'" name
  | Some f ->
      (* the arguments, cast to the parameter types, go into the callee's frame *)
      let body = func_body cx.st f and lay = param_layout f in
      let sets = List.map2 (fun a (p, pty) -> assign (local_slot lay p pty) (cast pty a.tty (expr cx a))) args f.tf_params in
      fun env ->
        let b = Lazy.force body in
        let fr = frame b env.mem in
        List.iter (fun set -> set env fr) sets;
        b.run fr;
        fr

and func_body st (f : tfunc) =
  match Hashtbl.find_opt st.staged.funcs f.tf_name with
  | Some b -> b
  | None ->
      let b = lazy (let b = stage st (param_layout f) [] f.tf_body in { b with run = (fun env -> try b.run env with Return -> ()) }) in
      Hashtbl.add st.staged.funcs f.tf_name b;
      b

and stmt cx (s : tstmt) : env -> unit =
  match s.ts with
  | S_local_decl (name, ty, init) ->
      let z = Bitvec.zero ty in
      let c = match init with Some e -> cast ty e.tty (expr cx e) | None -> if narrow ty then I (fun _ -> 0) else W (fun _ -> z) in
      let set = assign (local_slot cx.lay name ty) c in
      fun env -> set env env
  | S_assign_local (name, e) ->
      let set = assign (local_slot cx.lay name e.tty) (expr cx e) in
      fun env -> set env env
  | S_assign_reg (name, e) ->
      let fv = to_w e.tty (expr cx e) and a = lazy (reg_array cx.st name) in
      fun env -> let v = fv env in set_reg cx.st (Lazy.force a) 0 v
  | S_assign_regfile (name, idx, e) ->
      let fi = to_pat idx.tty (expr cx idx) and fv = to_w e.tty (expr cx e) and a = lazy (reg_array cx.st name) in
      fun env ->
        let i = fi env in
        let v = fv env in
        check_index (Lazy.force a) i name;
        (Lazy.force a).(i) <- Bitvec.cast (Bitvec.typ (Lazy.force a).(0)) v
  | S_assign_mem { space; addr; value; elems } ->
      let fa = to_pat addr.tty (expr cx addr) and fv = to_w value.tty (expr cx value) in
      fun env ->
        let a = fa env in
        let v = fv env in
        write_elems cx.st (match env.mem with Some p -> p.write_elem | None -> write_mem_elem cx.st) space a elems v
  | S_if (c, thn, els) ->
      let fc = to_b (expr cx c) and ft = block cx thn and fe = block cx els in
      fun env -> if fc env then ft env else fe env
  | S_for { init; cond; step; body } ->
      let fi = block cx init and fc = to_b (expr cx cond) and fb = block cx body and fs = block cx step in
      fun env ->
        fi env;
        let fuel = ref 1_000_000 in
        while fc env do
          decr fuel;
          if !fuel <= 0 then runtime_error s.tsloc "for-loop exceeded iteration limit";
          fb env;
          fs env
        done
  | S_spawn body ->
      (* architecturally, a spawn block has the same final-state semantics
         as inline execution; timing differences only exist in hardware *)
      block cx body
  | S_return None -> fun _ -> raise Return
  | S_return (Some e) ->
      let set = assign 0 (expr cx e) in
      fun env ->
        set env env;
        env.returned <- true;
        raise Return
  | S_expr ({ te = T_call (name, args); _ } as e) ->
      (* a call statement needs no returned value *)
      let c = call cx e name args in
      fun env -> ignore (c env)
  | S_expr e -> ( match expr cx e with I f -> fun env -> ignore (f env) | W f -> fun env -> ignore (f env))

and block cx stmts =
  match List.map (stmt cx) stmts with
  | [] -> ignore
  | first :: rest -> List.fold_left (fun k f env -> k env; f env) first rest

(* Stage a body; its encoding fields (none for functions and
   always-blocks) are decoded into their slots before it runs, on native
   ints when field and word allow. *)
and stage st lay fields stmts =
  let decoder (f : field_info) =
    let wide = not (narrow (Bitvec.unsigned_ty f.fld_width)) in
    let i = slot lay (f.fld_name, `Field) ~wide in
    let need = List.fold_left (fun n s -> max n (s.instr_lo + s.seg_len)) 0 f.segments in
    fun env word ->
      let w = Bitvec.width word in
      if wide then env.wides.(i) <- decode_field word f
      else env.ints.(i) <- (if need <= w && w <= table_width then decode_field_int f (bits word) else Bitvec.to_int (decode_field word f))
  in
  let decode = List.fold_left (fun k f -> let d = decoder f in fun env w -> k env w; d env w) (fun _ _ -> ()) fields in
  let run = block { st; lay; fields } stmts in
  { n_ints = lay.ni; n_wides = lay.nw; fields = decode; run }

(* the body staged for [key], found by [name]; staged on first use *)
let cached tbl name key make =
  match List.assq_opt key (Hashtbl.find_all tbl name) with
  | Some b -> b
  | None ->
      let b = make () in
      Hashtbl.add tbl name (key, b);
      b

(* ---- instruction execution ---- *)

(* Execute one instruction's behavior for a concrete instruction word,
   its memory accesses through [mem] if given; afterwards
   [st.pc_written] tells whether the behavior wrote the PC. *)
let exec_instr ?mem st (ti : tinstr) ~(instr_word : Bitvec.t) =
  st.pc_written <- false;
  let b = cached st.staged.instrs ti.ti_name ti (fun () -> stage st (new_layout ()) ti.fields ti.ti_behavior) in
  let env = frame b mem in
  b.fields env instr_word;
  b.run env

(* Execute one evaluation of an always-block (one clock tick). *)
let exec_always st (ta : talways) =
  let b = cached st.staged.always ta.ta_name ta (fun () -> stage st (new_layout ()) [] ta.ta_body) in
  b.run (frame b None)

(* The first instruction in [tinstrs] order whose encoding matches a word,
   if any: the lowest-index hit over every decode-table group. *)
let decode st (instr_word : Bitvec.t) =
  let d = st.decoder in
  let width = Bitvec.width instr_word in
  if width > table_width then List.find_opt (fun ti -> matches ti instr_word) d.wide
  else begin
    let bits =
      if Bitvec.is_signed instr_word then Bn.to_int_exn (Bitvec.pattern instr_word)
      else Bitvec.to_int instr_word
    in
    let best = ref None and best_index = ref max_int in
    for k = 0 to Array.length d.groups - 1 do
      let g = d.groups.(k) in
      if g.g_width = width then
        match Hashtbl.find_opt g.g_table (bits land g.g_mask) with
        | Some (i, ti) when i < !best_index ->
            best_index := i;
            best := Some ti
        | _ -> ()
    done;
    !best
  end

(* Encode an instruction word from field values (inverse of decode_field);
   the assembler's one encoder, for base and custom instructions alike. *)
let encode (ti : tinstr) (field_values : (string * Bitvec.t) list) : Bitvec.t =
  let u = Bitvec.unsigned_ty ti.enc_width in
  let place w (f : field_info) =
    match List.assoc_opt f.fld_name field_values with
    | None -> runtime_error no_loc "missing field '%s' for %s" f.fld_name ti.ti_name
    | Some v ->
        let v = Bitvec.cast (Bitvec.unsigned_ty f.fld_width) v in
        List.fold_left
          (fun w seg ->
            let bits = Bitvec.extract v ~hi:(seg.fld_lo + seg.seg_len - 1) ~lo:seg.fld_lo in
            Bitvec.logor w (Bitvec.cast u (Bitvec.shift_left (Bitvec.cast u bits) seg.instr_lo)))
          w f.segments
  in
  Bitvec.cast u (List.fold_left place ti.match_bits ti.fields)
