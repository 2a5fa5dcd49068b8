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

exception Rtl_loop_error of string

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (* architectural state *)
  by_name : (string, Longnail.Cosim.plan) Hashtbl.t;
      (* the first module with each functionality name, as [Flow.find_func] picks *)
  always : Longnail.Cosim.plan list;  (* the always-block modules, split out once *)
  mutable instret : int;
  mutable halted : bool;
}

(* Every functionality's engine and port plan are built here, once per
   run; each instruction resets the engine ({!Longnail.Cosim.run_plan})
   instead of building a fresh one. *)
let create (compiled : Longnail.Flow.compiled) =
  let modules =
    List.map
      (fun (f : Longnail.Flow.compiled_functionality) ->
        Longnail.Cosim.plan f (Rtl.Engine.create f.cf_hw.Longnail.Hwgen.netlist))
      compiled.Longnail.Flow.funcs
  in
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let name = (Longnail.Cosim.func m).cf_name in
      if not (Hashtbl.mem by_name name) then Hashtbl.add by_name name m)
    modules;
  {
    compiled;
    st = Interp.create compiled.Longnail.Flow.unit_;
    by_name;
    always = List.filter (fun m -> (Longnail.Cosim.func m).cf_kind = `Always) modules;
    instret = 0;
    halted = false;
  }

let read_pc t = Arch.read_pc t.st
let write_pc t v = Arch.write_pc t.st v
let read_gpr t i = Arch.read_gpr t.st i
let load_program t ?(base = 0) words = Arch.load_program t.st ~base words

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
      if w.cw_valid then
        Arch.write_custreg t.st w.cw_reg (Option.value ~default:0 w.cw_index) w.cw_data)
    resp.custreg_writes;
  (match resp.mem_write with
  | Some (addr, data, true) -> Arch.write_mem t.st addr data
  | _ -> ());
  (match (rd, resp.rd_write) with
  | Some rd, Some (data, true) when rd <> 0 ->
      (Interp.reg_array t.st "X").(rd) <- Bitvec.cast Arch.u32 data
  | _ -> ());
  match resp.pc_write with
  | Some (data, true) -> write_pc t (Bitvec.to_int data)
  | _ -> (
      match fallthrough_pc with Some pc -> write_pc t pc | None -> ())

(* one evaluation of every always-block through its RTL module *)
let tick_always t =
  List.iter
    (fun m -> apply_response t (Longnail.Cosim.run_plan m (stimulus_of t ())) ~fallthrough_pc:None)
    t.always

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
        match Hashtbl.find_opt t.by_name ti.ti_name with
        | Some m ->
            (* custom instruction: through the RTL *)
            let field = Arch.field_value ti word in
            let rs1 = Option.map (fun i -> Interp.read_regfile t.st "X" i) (field "rs1") in
            let rs2 = Option.map (fun i -> Interp.read_regfile t.st "X" i) (field "rs2") in
            let resp = Longnail.Cosim.run_plan m (stimulus_of t ~instr_word:word ?rs1 ?rs2 ()) in
            apply_response t ?rd:(field "rd") resp
              ~fallthrough_pc:(Some ((pc + 4) land 0xFFFFFFFF));
            true
        | None ->
            (* base instruction: reference interpreter *)
            Interp.exec_instr t.st ti ~instr_word:word;
            if not t.st.Interp.pc_written then write_pc t ((pc + 4) land 0xFFFFFFFF);
            true)
  end

let run ?(fuel = 200_000) t =
  Arch.run_with_fuel ~fuel (fun () -> step t);
  t.instret
