(* RTL-in-the-loop program execution.

   Runs a complete assembler program against an extended core where every
   custom-instruction and always-block *executes through the generated RTL*
   (via the co-simulation harness) while the base RV32I instructions run in
   the reference interpreter. This is the closest analogue of the paper's
   verification methodology — "RTL simulation of the execution of
   handwritten assembler programs" (Section 5.3) — and the integration
   tests compare its final architectural state against a pure-interpreter
   run of the same program. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast

exception Rtl_loop_error of string

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (* architectural state *)
  engines : (Longnail.Flow.compiled_functionality * Rtl.Engine.t) list;
      (* one per functionality, in [compiled.funcs] order *)
  mutable instret : int;
  mutable halted : bool;
}

(* Every functionality's engine is built here, once per run; each
   instruction resets it ({!Longnail.Cosim.run_on}) instead of building a
   fresh one. *)
let create (compiled : Longnail.Flow.compiled) =
  let engines =
    List.map
      (fun (f : Longnail.Flow.compiled_functionality) ->
        (f, Rtl.Engine.create f.cf_hw.Longnail.Hwgen.netlist))
      compiled.Longnail.Flow.funcs
  in
  {
    compiled;
    st = Interp.create compiled.Longnail.Flow.unit_;
    engines;
    instret = 0;
    halted = false;
  }

let tu t = t.compiled.Longnail.Flow.unit_

let read_pc t = Bitvec.to_int (Interp.read_reg t.st "PC")
let write_pc t v = (Interp.reg_array t.st "PC").(0) <- Bitvec.of_int (Bitvec.unsigned_ty 32) v
let read_gpr t i = Bitvec.to_int (Interp.read_regfile t.st "X" i)

let load_program t ?(base = 0) words =
  List.iteri
    (fun i w ->
      Interp.write_mem t.st "MEM" (base + (4 * i)) 4 (Bitvec.of_int (Bitvec.unsigned_ty 32) w))
    words;
  write_pc t base

(* stimulus reading the current architectural state *)
let stimulus_of t ?instr_word ?rs1 ?rs2 () =
  {
    Longnail.Cosim.instr_word;
    rs1;
    rs2;
    pc = Some (Interp.read_reg t.st "PC");
    custreg =
      (fun reg idx ->
        let a = Interp.reg_array t.st reg in
        if idx >= 0 && idx < Array.length a then a.(idx)
        else raise (Rtl_loop_error (Printf.sprintf "index %d out of range for %s" idx reg)));
    mem_read = (fun addr elems -> Interp.read_mem t.st "MEM" addr elems);
  }

(* apply the RTL's state-update requests to the architectural state *)
let apply_response t ?rd (resp : Longnail.Cosim.response) ~fallthrough_pc =
  List.iter
    (fun (w : Longnail.Cosim.custreg_write) ->
      if w.cw_valid then begin
        let a = Interp.reg_array t.st w.cw_reg in
        let idx = Option.value ~default:0 w.cw_index in
        a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) w.cw_data
      end)
    resp.custreg_writes;
  (match resp.mem_write with
  | Some (addr, data, true) -> Interp.write_mem t.st "MEM" addr (Bitvec.width data / 8) data
  | _ -> ());
  (match (rd, resp.rd_write) with
  | Some rd, Some (data, true) when rd <> 0 ->
      (Interp.reg_array t.st "X").(rd) <- Bitvec.cast (Bitvec.unsigned_ty 32) data
  | _ -> ());
  match resp.pc_write with
  | Some (data, true) -> write_pc t (Bitvec.to_int data)
  | _ -> (
      match fallthrough_pc with Some pc -> write_pc t pc | None -> ())

(* one evaluation of every always-block through its RTL module *)
let tick_always t =
  List.iter
    (fun ((f : Longnail.Flow.compiled_functionality), engine) ->
      if f.cf_kind = `Always then begin
        let resp = Longnail.Cosim.run_on engine f (stimulus_of t ()) in
        apply_response t resp ~fallthrough_pc:None
      end)
    t.engines

let field_value ti word name =
  Option.map
    (fun fi -> Bitvec.to_int (Interp.decode_field word fi))
    (Tast.find_field ti name)

(* Execute one instruction; ISAXes run through their RTL modules. *)
let step t =
  if t.halted then false
  else begin
    tick_always t;
    let pc = read_pc t in
    let word = Interp.read_mem t.st "MEM" pc 4 in
    match Interp.decode t.st word with
    | None ->
        t.halted <- true;
        false
    | Some ti when ti.ti_name = "EBREAK" ->
        t.halted <- true;
        false
    | Some ti -> (
        t.instret <- t.instret + 1;
        (* the first functionality by name, as [Flow.find_func] picks *)
        match
          List.find_opt
            (fun ((f : Longnail.Flow.compiled_functionality), _) -> f.cf_name = ti.ti_name)
            t.engines
        with
        | Some (f, engine) ->
            (* custom instruction: through the RTL *)
            let rs1 = Option.map (fun i -> Interp.read_regfile t.st "X" i) (field_value ti word "rs1") in
            let rs2 = Option.map (fun i -> Interp.read_regfile t.st "X" i) (field_value ti word "rs2") in
            let resp = Longnail.Cosim.run_on engine f (stimulus_of t ~instr_word:word ?rs1 ?rs2 ()) in
            apply_response t ?rd:(field_value ti word "rd") resp
              ~fallthrough_pc:(Some ((pc + 4) land 0xFFFFFFFF));
            true
        | None ->
            (* base instruction: reference interpreter *)
            Interp.exec_instr t.st ti ~instr_word:word;
            if not t.st.Interp.pc_written then write_pc t ((pc + 4) land 0xFFFFFFFF);
            true)
  end

let run ?(fuel = 200_000) t =
  let rec go n =
    if n <= 0 then raise (Machine.Out_of_fuel fuel)
    else if step t then go (n - 1)
    else ()
  in
  go fuel;
  t.instret
