(* Reference interpreter for typed CoreDSL behaviors.

   Executes instruction behaviors and always-blocks against an
   architectural-state model. This is the golden model: the RTL generated
   by Longnail is co-simulated against it in the integration tests
   (Section 5.3 of the paper verifies extended cores by RTL simulation). *)

module Bn = Bitvec.Bn
open Ast
open Tast

exception Runtime_error of loc * string

let runtime_error loc fmt = Format.kasprintf (fun m -> raise (Runtime_error (loc, m))) fmt

(* ---- decode table ---- *)

(* Encodings and words up to this width decode through native-int tables;
   wider ones keep the linear [matches] scan. *)
let table_width = Sys.int_size - 1

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

type state = {
  unit_ : tunit;
  regs : (string, Bitvec.t array) Hashtbl.t;
  mems : (string, (int, Bitvec.t) Hashtbl.t) Hashtbl.t;
  decoder : decoder;
  pc_reg : Bitvec.t array option;  (* the [is_pc] register, if any *)
  mutable pc_written : bool;  (* the last [exec_instr] wrote the PC *)
}

let create (tu : tunit) =
  let regs = Hashtbl.create 8 and mems = Hashtbl.create 2 in
  List.iter
    (fun (r : Elaborate.reg) ->
      let a =
        match r.rinit with
        | Some init when Array.length init = r.elems -> Array.map Fun.id init
        | Some init ->
            let a = Array.make r.elems (Bitvec.zero r.rty) in
            Array.blit init 0 a 0 (Array.length init);
            a
        | None -> Array.make r.elems (Bitvec.zero r.rty)
      in
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
  { unit_ = tu; regs; mems; decoder = make_decoder tu.tinstrs; pc_reg; pc_written = false }

(* ---- state accessors ---- *)

let reg_array st name =
  match Hashtbl.find_opt st.regs name with
  | Some a -> a
  | None -> runtime_error no_loc "no register '%s'" name

let read_reg st name = (reg_array st name).(0)

let write_reg st name v =
  let a = reg_array st name in
  a.(0) <- Bitvec.cast (Bitvec.typ a.(0)) v;
  match st.pc_reg with Some pc when pc == a -> st.pc_written <- true | _ -> ()

let read_regfile st name idx =
  let a = reg_array st name in
  if idx < 0 || idx >= Array.length a then
    runtime_error no_loc "index %d out of range for register file %s" idx name;
  a.(idx)

let write_regfile st name idx v =
  let a = reg_array st name in
  if idx < 0 || idx >= Array.length a then
    runtime_error no_loc "index %d out of range for register file %s" idx name;
  a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) v

let space_info st name =
  match Elaborate.find_space st.unit_.elab name with
  | Some s -> s
  | None -> runtime_error no_loc "no address space '%s'" name

let mem_table st name =
  match Hashtbl.find_opt st.mems name with
  | Some t -> t
  | None -> runtime_error no_loc "no address space '%s'" name

let read_mem_elem st name addr =
  let s = space_info st name in
  match Hashtbl.find_opt (mem_table st name) addr with
  | Some v -> v
  | None -> Bitvec.zero s.elem_ty

let write_mem_elem st name addr v =
  let s = space_info st name in
  Hashtbl.replace (mem_table st name) addr (Bitvec.cast s.elem_ty v)

type mem_port = {
  read_elem : string -> int -> Bitvec.t;
  write_elem : string -> int -> Bitvec.t -> unit;
}

(* little-endian multi-element read: element at [addr + elems - 1] is MSB *)
let read_mem ?mem st name addr elems =
  let elem a = match mem with Some p -> p.read_elem name a | None -> read_mem_elem st name a in
  (* concatenate from the MSB side: element addr+elems-1 :: ... :: addr *)
  let v = ref (elem (addr + elems - 1)) in
  for k = elems - 2 downto 0 do
    v := Bitvec.concat !v (elem (addr + k))
  done;
  !v

(* little-endian multi-element write, element by element through [write_elem] *)
let write_elems st write_elem name addr elems v =
  let s = space_info st name in
  let ew = s.elem_ty.Bitvec.width in
  for k = 0 to elems - 1 do
    let piece = Bitvec.extract (Bitvec.cast (Bitvec.unsigned_ty (elems * ew)) v) ~hi:(((k + 1) * ew) - 1) ~lo:(k * ew) in
    write_elem name (addr + k) piece
  done

let write_mem st = write_elems st (write_mem_elem st)

(* ---- expression evaluation ---- *)

type frame = {
  locals : (string, Bitvec.t) Hashtbl.t;
  fields : (string * Bitvec.t) list;  (* decoded encoding fields *)
  mem : mem_port option;  (* where memory accesses go; committed memory if [None] *)
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
  | T_reg name -> read_reg st name
  | T_regfile (name, idx) -> read_regfile st name (Bitvec.to_int (eval st fr idx))
  | T_rom (name, idx) -> read_regfile st name (Bitvec.to_int (eval st fr idx))
  | T_mem { space; addr; elems } ->
      let a = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr addr)) in
      Bitvec.cast e.tty (read_mem ?mem:fr.mem st space a elems)
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
      let f =
        match find_tfunc st.unit_ name with
        | Some f -> f
        | None -> runtime_error e.tloc "unknown function '%s'" name
      in
      let vargs = List.map (eval st fr) args in
      match call_function st fr.mem f vargs with
      | Some v -> v
      | None -> runtime_error e.tloc "void function '%s' in expression" name)

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
  | S_assign_reg (name, e) -> write_reg st name (eval st fr e)
  | S_assign_regfile (name, idx, e) ->
      let i = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr idx)) in
      write_regfile st name i (eval st fr e)
  | S_assign_mem { space; addr; value; elems } ->
      let a = Bitvec.to_int (Bitvec.reinterpret_sign false (eval st fr addr)) in
      let write = match fr.mem with Some p -> p.write_elem | None -> write_mem_elem st in
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

(* ---- instruction decoding and execution ---- *)

(* Extract the value of an encoding field from an instruction word. *)
let decode_field (instr_word : Bitvec.t) (f : field_info) : Bitvec.t =
  let v = ref (Bitvec.zero (Bitvec.unsigned_ty f.fld_width)) in
  List.iter
    (fun seg ->
      let bits =
        Bitvec.extract instr_word ~hi:(seg.instr_lo + seg.seg_len - 1) ~lo:seg.instr_lo
      in
      let shifted =
        Bitvec.cast (Bitvec.unsigned_ty f.fld_width) (Bitvec.shift_left (Bitvec.cast (Bitvec.unsigned_ty f.fld_width) bits) seg.fld_lo)
      in
      v := Bitvec.logor !v shifted)
    f.segments;
  Bitvec.cast (Bitvec.unsigned_ty f.fld_width) !v

let matches (ti : tinstr) (instr_word : Bitvec.t) =
  Bitvec.width instr_word = ti.enc_width
  && Bitvec.equal_value (Bitvec.logand instr_word ti.mask) ti.match_bits

(* Execute one instruction's behavior for a concrete instruction word,
   its memory accesses through [mem] if given; afterwards
   [st.pc_written] tells whether the behavior wrote the PC. *)
let exec_instr ?mem st (ti : tinstr) ~(instr_word : Bitvec.t) =
  st.pc_written <- false;
  let fields = List.map (fun f -> (f.fld_name, decode_field instr_word f)) ti.fields in
  let fr = { locals = Hashtbl.create 8; fields; mem } in
  exec_stmts st fr ti.ti_behavior

(* Execute one evaluation of an always-block (one clock tick). *)
let exec_always st (ta : talways) =
  let fr = { locals = Hashtbl.create 8; fields = []; mem = None } in
  exec_stmts st fr ta.ta_body

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
   used by tests and the assembler for custom instructions. *)
let encode (ti : tinstr) (field_values : (string * Bitvec.t) list) : Bitvec.t =
  let w = ref ti.match_bits in
  List.iter
    (fun (f : field_info) ->
      match List.assoc_opt f.fld_name field_values with
      | None -> runtime_error no_loc "missing field '%s' for %s" f.fld_name ti.ti_name
      | Some v ->
          let v = Bitvec.cast (Bitvec.unsigned_ty f.fld_width) v in
          List.iter
            (fun seg ->
              let bits = Bitvec.extract v ~hi:(seg.fld_lo + seg.seg_len - 1) ~lo:seg.fld_lo in
              let placed =
                Bitvec.cast (Bitvec.unsigned_ty ti.enc_width)
                  (Bitvec.shift_left (Bitvec.cast (Bitvec.unsigned_ty ti.enc_width) bits) seg.instr_lo)
              in
              w := Bitvec.logor !w placed)
            f.segments)
    ti.fields;
  Bitvec.cast (Bitvec.unsigned_ty ti.enc_width) !w
