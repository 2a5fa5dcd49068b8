(* Cycle-level machine models of the four host cores.

   Architectural state and instruction semantics come from the CoreDSL
   reference interpreter (so the very same typed behaviors drive both the
   HLS flow and the simulation); on top sits a per-core timing model:
   single-issue in-order execution with memory wait states, branch
   redirect penalties, FSM sequencing for PicoRV32, and the ISAX execution
   modes of Section 3.2 (tightly-coupled stalls, decoupled background
   execution with scoreboard stalls, zero-overhead always-block PC
   redirects). This is the substrate for the Section 5.5 case study. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast

exception Machine_error of string

(* A program did not reach EBREAK within its budget (the payload); shared
   by the three program engines: Machine, Pipeline and Rtl_loop. *)
exception Out_of_fuel = Arch.Out_of_fuel

(* The per-core timing parameters live in the core registry (one
   registration site per host core, Scaiev.Core_registry). The VexRiscv
   numbers reproduce the Section 5.5 cycle counts (18n+50 baseline,
   11n+50 with ISAXes). *)
type timing = Scaiev.Core_registry.timing = {
  fsm_base : int;
  mem_wait : int;
  branch_penalty : int;
  decoupled_issue_stall : int;
}

let timing_for (core : Scaiev.Datasheet.t) =
  match Scaiev.Core_registry.of_datasheet core with
  | Some d -> d.timing
  | None -> raise (Machine_error ("no registered timing model for core " ^ core.core_name))

(* kept as a named value for the examples and the case study *)
let vexriscv_timing = timing_for Scaiev.Datasheet.vexriscv

(* per-ISAX-instruction timing info, derived from a Longnail compile *)
type isax_timing = {
  it_mode : Scaiev.Config.mode;
  it_extra_stall : int;  (* tightly-coupled: cycles the pipeline stalls *)
  it_result_latency : int;  (* decoupled: cycles until the result commits *)
  it_uses_mem : bool;
  it_writes_rd : bool;
}

let isax_timing_of (c : Longnail.Flow.compiled) : (string * isax_timing) list =
  let wb = c.core.writeback_stage in
  List.filter_map
    (fun (f : Longnail.Flow.compiled_functionality) ->
      if f.cf_kind <> `Instruction then None
      else begin
        let bindings = f.cf_hw.Longnail.Hwgen.bindings in
        let uses_mem =
          List.exists (fun b -> b.Longnail.Hwgen.ib_iface = "RdMem" || b.Longnail.Hwgen.ib_iface = "WrMem") bindings
        in
        let writes_rd = List.exists (fun b -> b.Longnail.Hwgen.ib_iface = "WrRD") bindings in
        let max_stage = f.cf_hw.Longnail.Hwgen.max_stage in
        Some
          ( f.cf_name,
            {
              it_mode = f.cf_mode;
              it_extra_stall = max 0 (max_stage - wb);
              it_result_latency = max 1 (max_stage - c.core.operand_stage);
              it_uses_mem = uses_mem;
              it_writes_rd = writes_rd;
            } )
      end)
    c.funcs

type t = {
  tu : Tast.tunit;
  st : Interp.state;
  timing : timing;
  isax : (string * isax_timing) list;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  (* decoupled scoreboard: GPR index -> cycle at which the value commits *)
  pending : int array;
  infos : (string, isax_timing option * bool) Hashtbl.t;
      (* per instruction name: its ISAX timing and whether it accesses memory *)
}

let mem_instr_names = [ "LB"; "LH"; "LW"; "LBU"; "LHU"; "SB"; "SH"; "SW" ]

let create ?(isax = []) ~(timing : timing) (tu : Tast.tunit) =
  let info (ti : Tast.tinstr) =
    let it = List.assoc_opt ti.ti_name isax in
    (ti.ti_name, (it, List.mem ti.ti_name mem_instr_names || Option.fold ~none:false ~some:(fun i -> i.it_uses_mem) it))
  in
  {
    tu;
    st = Interp.create tu;
    timing;
    isax;
    cycles = 0;
    instret = 0;
    halted = false;
    pending = Array.make 32 0;
    infos = Hashtbl.of_seq (Seq.map info (List.to_seq tu.tinstrs));
  }

(* build a machine for a core using a Longnail compile for ISAX timing *)
let of_compiled (c : Longnail.Flow.compiled) =
  create ~isax:(isax_timing_of c) ~timing:(timing_for c.core) c.unit_

let read_pc m = Arch.read_pc m.st
let write_pc m v = Arch.write_pc m.st v
let read_gpr m i = Arch.read_gpr m.st i
let write_gpr m i v = Arch.write_gpr m.st i v

(* load a program (list of 32-bit words) at [base] *)
let load_program m ?(base = 0) words = Arch.load_program m.st ~base words
let store_word m addr v = Arch.store_word m.st addr v
let load_word m addr = Arch.load_word m.st addr

(* Execute one instruction; returns false when halted. *)
let step m =
  if m.halted then false
  else begin
    (* always-blocks evaluate continuously; a PC redirect by an
       always-block (e.g. ZOL) replaces the fetch without penalty *)
    List.iter (fun ta -> Interp.exec_always m.st ta) m.tu.talways;
    let pc = read_pc m in
    let word = Interp.read_mem m.st "MEM" pc 4 in
    match Interp.decode m.st word with
    | None ->
        m.halted <- true;
        false
    | Some ti ->
        if ti.ti_name = "EBREAK" then begin
          m.halted <- true;
          m.cycles <- m.cycles + 1;
          false
        end
        else begin
          let isax_info, uses_mem = Hashtbl.find m.infos ti.ti_name in
          (* scoreboard: stall until pending writers of our sources commit *)
          let stall_until = ref m.cycles in
          List.iter
            (fun f ->
              match Arch.field_value ti word f with
              | Some r when r > 0 -> stall_until := max !stall_until m.pending.(r)
              | _ -> ())
            [ "rs1"; "rs2" ];
          if !stall_until > m.cycles then m.cycles <- !stall_until;
          (* execute architecturally *)
          Interp.exec_instr m.st ti ~instr_word:word;
          (* a taken control transfer writes the PC, possibly with its
             own address (the `j .` spin); anything else falls through *)
          let redirected = m.st.Interp.pc_written in
          if not redirected then write_pc m ((pc + 4) land 0xFFFFFFFF);
          (* timing *)
          let cost = ref m.timing.fsm_base in
          if uses_mem then cost := !cost + m.timing.mem_wait;
          if redirected then cost := !cost + m.timing.branch_penalty;
          (match isax_info with
          | Some { it_mode = Scaiev.Config.Tightly_coupled; it_extra_stall; _ } ->
              cost := !cost + it_extra_stall
          | Some { it_mode = Scaiev.Config.Decoupled; it_result_latency; it_writes_rd; _ } ->
              cost := !cost + m.timing.decoupled_issue_stall;
              if it_writes_rd then begin
                match Arch.field_value ti word "rd" with
                | Some rd when rd > 0 ->
                    m.pending.(rd) <- m.cycles + !cost + it_result_latency
                | _ -> ()
              end
          | _ -> ());
          m.cycles <- m.cycles + !cost;
          m.instret <- m.instret + 1;
          true
        end
  end

(* run until halt or the fuel is exhausted; returns consumed cycle count *)
let run ?(fuel = 1_000_000) m =
  Arch.run_with_fuel ~fuel (fun () -> step m);
  m.cycles

(* kept for callers that name the encoder through the machine *)
let isax_encoder = Asm.encoder
