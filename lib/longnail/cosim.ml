(* Co-simulation harness: drive a generated ISAX module cycle by cycle
   through its SCAIE-V port bindings, the way the host core would.

   Used by the integration tests to verify that the RTL produced by
   Longnail matches the CoreDSL reference interpreter (the paper verifies
   extended cores by RTL simulation, Section 5.3), and by the examples to
   demonstrate the generated hardware actually computing. *)

type stimulus = {
  instr_word : Bitvec.t option;
  rs1 : Bitvec.t option;
  rs2 : Bitvec.t option;
  pc : Bitvec.t option;
  custreg : string -> int -> Bitvec.t;  (* register name, index -> value *)
  mem_read : int -> int -> Bitvec.t;  (* address, elems -> little-endian value *)
}

let default_stimulus =
  {
    instr_word = None;
    rs1 = None;
    rs2 = None;
    pc = None;
    custreg = (fun _ _ -> Bitvec.zero (Bitvec.unsigned_ty 32));
    mem_read = (fun _ elems -> Bitvec.zero (Bitvec.unsigned_ty (8 * elems)));
  }

type custreg_write = {
  cw_reg : string;
  cw_index : int option;
  cw_data : Bitvec.t;
  cw_valid : bool;
}

type response = {
  rd_write : (Bitvec.t * bool) option;  (* WrRD data, valid *)
  pc_write : (Bitvec.t * bool) option;
  custreg_writes : custreg_write list;
  mem_write : (int * Bitvec.t * bool) option;  (* addr, data, valid *)
  mem_read_request : (int * bool) option;  (* addr, valid *)
  cycles : int;
}

exception Cosim_error of string

(* Run one instruction (or one always-block evaluation) through the module
   on [sim], an engine built for its netlist, after resetting it: every
   run starts from the state a fresh engine has. Inputs are applied in
   the stage recorded in each binding; outputs are sampled in theirs. All
   stall inputs are held low. *)
let run_on (sim : Rtl.Engine.t) (f : Flow.compiled_functionality) (stim : stimulus) :
    response =
  let hw = f.cf_hw in
  let m = hw.Hwgen.netlist in
  if Rtl.Engine.netlist sim != m then
    raise (Cosim_error (Printf.sprintf "engine was not built for %s's netlist" f.cf_name));
  Rtl.Engine.reset sim;
  let u w = Bitvec.unsigned_ty w in
  (* hold stall inputs low *)
  List.iter
    (fun (p : Rtl.Netlist.port) ->
      if String.length p.port_name >= 8 && String.sub p.port_name 0 8 = "stall_in" then
        Rtl.Engine.set_input sim p.port_name (Bitvec.zero (u 1)))
    m.Rtl.Netlist.inputs;
  let port role (b : Hwgen.iface_binding) =
    match List.assoc_opt role b.ib_ports with
    | Some p -> p
    | None -> raise (Cosim_error (Printf.sprintf "binding %s lacks %s port" b.ib_iface role))
  in
  let has_input name = List.exists (fun (p : Rtl.Netlist.port) -> p.port_name = name) m.Rtl.Netlist.inputs in
  let rd_write = ref None and pc_write = ref None in
  let custreg_writes = ref [] and mem_write = ref None and mem_read_request = ref None in
  (* pending memory response: (cycle, port, value) *)
  let pending_inputs : (int * string * Bitvec.t) list ref = ref [] in
  let min_stage =
    List.fold_left (fun acc (b : Hwgen.iface_binding) -> min acc b.ib_stage) 1000 hw.bindings
  in
  let min_stage = min min_stage 0 in
  let max_cycle = hw.max_stage + 2 in
  for cycle = min_stage to max_cycle do
    (* supply plain inputs bound to this stage *)
    List.iter
      (fun (b : Hwgen.iface_binding) ->
        if b.ib_stage = cycle then
          match b.ib_opname with
          | "lil.instr_word" -> (
              match stim.instr_word with
              | Some v -> Rtl.Engine.set_input sim (port "data" b) v
              | None -> raise (Cosim_error "stimulus lacks instruction word"))
          | "lil.read_rs1" ->
              Rtl.Engine.set_input sim (port "data" b)
                (match stim.rs1 with Some v -> v | None -> raise (Cosim_error "no rs1"))
          | "lil.read_rs2" ->
              Rtl.Engine.set_input sim (port "data" b)
                (match stim.rs2 with Some v -> v | None -> raise (Cosim_error "no rs2"))
          | "lil.read_pc" ->
              Rtl.Engine.set_input sim (port "data" b)
                (match stim.pc with Some v -> v | None -> raise (Cosim_error "no pc"))
          | _ -> ())
      hw.bindings;
    (* supply any pending (latency-delayed) inputs due this cycle *)
    List.iter
      (fun (c, p, v) -> if c = cycle then Rtl.Engine.set_input sim p v)
      !pending_inputs;
    Rtl.Engine.eval sim;
    (* address-dependent reads: custom registers deliver in the same stage *)
    List.iter
      (fun (b : Hwgen.iface_binding) ->
        if b.ib_stage = cycle && b.ib_opname = "lil.read_custreg" then begin
          let reg = Option.get b.ib_reg in
          let idx =
            match List.assoc_opt "addr" b.ib_ports with
            | Some ap -> Bitvec.to_int (Rtl.Engine.output sim ap)
            | None -> 0
          in
          let data_port = port "data" b in
          if has_input data_port then begin
            Rtl.Engine.set_input sim data_port (stim.custreg reg idx);
            Rtl.Engine.eval sim
          end
        end)
      hw.bindings;
    (* memory read request: response arrives after the interface latency *)
    List.iter
      (fun (b : Hwgen.iface_binding) ->
        if b.ib_stage = cycle && b.ib_opname = "lil.read_mem" then begin
          let addr = Bitvec.to_int (Rtl.Engine.output sim (port "addr" b)) in
          let valid = Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) in
          mem_read_request := Some (addr, valid);
          let data_port = port "data" b in
          (* the response arrives one cycle later (RdMem latency) *)
          let width =
            match
              List.find_opt
                (fun (p : Rtl.Netlist.port) -> p.port_name = data_port)
                m.Rtl.Netlist.inputs
            with
            | Some p -> p.port_width
            | None -> 32
          in
          pending_inputs :=
            (cycle + 1, data_port, Bitvec.cast (u width) (stim.mem_read addr (max 1 (width / 8))))
            :: !pending_inputs
        end)
      hw.bindings;
    (* sample outputs bound to this stage *)
    List.iter
      (fun (b : Hwgen.iface_binding) ->
        if b.ib_stage = cycle then
          match b.ib_opname with
          | "lil.write_rd" ->
              rd_write :=
                Some
                  ( Rtl.Engine.output sim (port "data" b),
                    Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) )
          | "lil.write_pc" ->
              pc_write :=
                Some
                  ( Rtl.Engine.output sim (port "data" b),
                    Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) )
          | "lil.write_custreg" ->
              let reg = Option.get b.ib_reg in
              custreg_writes :=
                {
                  cw_reg = reg;
                  cw_index =
                    Option.map
                      (fun ap -> Bitvec.to_int (Rtl.Engine.output sim ap))
                      (List.assoc_opt "addr" b.ib_ports);
                  cw_data = Rtl.Engine.output sim (port "data" b);
                  cw_valid = Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b));
                }
                :: !custreg_writes
          | "lil.write_mem" ->
              mem_write :=
                Some
                  ( Bitvec.to_int (Rtl.Engine.output sim (port "addr" b)),
                    Rtl.Engine.output sim (port "data" b),
                    Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) )
          | _ -> ())
      hw.bindings;
    Rtl.Engine.clock sim
  done;
  {
    rd_write = !rd_write;
    pc_write = !pc_write;
    custreg_writes = List.rev !custreg_writes;
    mem_write = !mem_write;
    mem_read_request = !mem_read_request;
    cycles = max_cycle - min_stage + 1;
  }

(* One-shot run on a fresh engine: compiled by default;
   [~engine:Rtl.Engine.Interp] cross-checks against the reference
   interpreter. *)
let run ?engine (f : Flow.compiled_functionality) stim =
  run_on (Rtl.Engine.create ?kind:engine f.cf_hw.Hwgen.netlist) f stim
