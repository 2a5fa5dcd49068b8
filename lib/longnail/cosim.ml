(* Co-simulation harness: drive a generated ISAX module cycle by cycle
   through its SCAIE-V port bindings, the way the host core would.

   This is the one host-side implementation of the SCAIE-V port protocol.
   [run_on] uses it for a single instruction in isolation (the integration
   tests, the examples, RTL-in-the-loop); the structural pipeline
   ([Riscv.Pipeline]) uses the same [plan], [set_stalls], [drive] and
   [service] to run many in-flight instructions through one module. *)

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

(* ---- the port plan ---- *)

type source = Instr_word | Rs1 | Rs2 | Pc

(* one binding's resolved ports *)
type port_op =
  | Drive of source * string
  | Read_custreg of { reg : string; addr : string option; data : string }
  | Read_mem of { addr : string; valid : string; data : string; elems : int }
  | Write_rd of { data : string; valid : string }
  | Write_pc of { data : string; valid : string }
  | Write_custreg of { reg : string; addr : string option; data : string; valid : string }
  | Write_mem of { addr : string; data : string; valid : string }

(* the order [service] handles a stage's operations in: register reads
   (which re-evaluate), then memory reads, then the writes *)
let rank = function Drive _ -> 0 | Read_custreg _ -> 1 | Read_mem _ -> 2 | _ -> 3

type plan = {
  func : Flow.compiled_functionality;
  first_stage : int;
  last_stage : int;
  stages : port_op list array;  (* index: stage - first_stage; by rank, then binding order *)
  stalls : (int * string) list;  (* boundary s, its stall_in_s port *)
}

let plan (f : Flow.compiled_functionality) =
  let hw = f.cf_hw in
  let inputs = hw.Hwgen.netlist.Rtl.Netlist.inputs in
  let input_width name =
    List.find_map
      (fun (p : Rtl.Netlist.port) -> if p.port_name = name then Some p.port_width else None)
      inputs
  in
  let op (b : Hwgen.iface_binding) =
    let port role =
      match List.assoc_opt role b.ib_ports with
      | Some p -> p
      | None -> raise (Cosim_error (Printf.sprintf "binding %s lacks %s port" b.ib_iface role))
    in
    let addr = List.assoc_opt "addr" b.ib_ports in
    match b.ib_opname with
    | "lil.instr_word" -> Some (Drive (Instr_word, port "data"))
    | "lil.read_rs1" -> Some (Drive (Rs1, port "data"))
    | "lil.read_rs2" -> Some (Drive (Rs2, port "data"))
    | "lil.read_pc" -> Some (Drive (Pc, port "data"))
    | "lil.read_custreg" ->
        let data = port "data" in
        Option.map
          (fun _ -> Read_custreg { reg = Option.get b.ib_reg; addr; data })
          (input_width data)
    | "lil.read_mem" ->
        let data = port "data" in
        let width = Option.value ~default:32 (input_width data) in
        Some (Read_mem { addr = port "addr"; valid = port "valid"; data; elems = max 1 (width / 8) })
    | "lil.write_rd" -> Some (Write_rd { data = port "data"; valid = port "valid" })
    | "lil.write_pc" -> Some (Write_pc { data = port "data"; valid = port "valid" })
    | "lil.write_custreg" ->
        Some
          (Write_custreg
             { reg = Option.get b.ib_reg; addr; data = port "data"; valid = port "valid" })
    | "lil.write_mem" ->
        Some (Write_mem { addr = port "addr"; data = port "data"; valid = port "valid" })
    | _ -> None
  in
  let first_stage =
    List.fold_left (fun acc (b : Hwgen.iface_binding) -> min acc b.ib_stage) 0 hw.bindings
  in
  let last_stage = max first_stage hw.max_stage in
  let stages =
    Array.init (last_stage - first_stage + 1) (fun i ->
        List.filter_map
          (fun (b : Hwgen.iface_binding) -> if b.ib_stage = first_stage + i then op b else None)
          hw.bindings
        |> List.stable_sort (fun a b -> compare (rank a) (rank b)))
  in
  let stalls =
    List.filter_map
      (fun (p : Rtl.Netlist.port) ->
        let n = p.port_name in
        if String.length n > 9 && String.sub n 0 9 = "stall_in_" then
          Some (int_of_string (String.sub n 9 (String.length n - 9)), n)
        else None)
      inputs
  in
  { func = f; first_stage; last_stage; stages; stalls }

let func p = p.func
let last_stage p = p.last_stage

let ports p stage =
  if stage < p.first_stage || stage > p.last_stage then [] else p.stages.(stage - p.first_stage)

let custreg_reads p ~stage =
  List.filter_map (function Read_custreg r -> Some r.reg | _ -> None) (ports p stage)

let writes p target ~from =
  let hits = function
    | Write_custreg w -> target = `Custreg w.reg
    | Write_mem _ -> target = `Mem
    | _ -> false
  in
  let rec go s = s <= p.last_stage && (List.exists hits (ports p s) || go (s + 1)) in
  go from

(* ---- the per-cycle operations ---- *)

type mem_response = { due : int; port : string; value : Bitvec.t }

type 'ctx host = {
  custreg : 'ctx -> string -> int -> Bitvec.t;
  mem_read : 'ctx -> int -> bool -> int -> Bitvec.t;
  write_rd : 'ctx -> Bitvec.t -> bool -> unit;
  write_pc : 'ctx -> Bitvec.t -> bool -> unit;
  write_custreg : 'ctx -> string -> int option -> Bitvec.t -> bool -> unit;
  write_mem : 'ctx -> int -> Bitvec.t -> bool -> unit;
}

let stall_bit = [| Bitvec.of_int Bitvec.bool_ty 0; Bitvec.of_int Bitvec.bool_ty 1 |]

let set_stalls p engine ~frozen_below =
  List.iter
    (fun (s, port) -> Rtl.Engine.set_input engine port stall_bit.(Bool.to_int (s < frozen_below)))
    p.stalls

let drive p engine ~stage ~pending value =
  List.iter
    (function Drive (src, port) -> Rtl.Engine.set_input engine port (value src) | _ -> ())
    (ports p stage);
  List.iter (fun r -> if r.due = stage then Rtl.Engine.set_input engine r.port r.value) pending

(* RdMem responses are due one stage after the request: the module reads
   the data port in stage + latency, and the latency is 1 on every
   registered core *)
let service p engine ~stage host ctx =
  let out = Rtl.Engine.output engine in
  let int port = Bitvec.to_int (out port) and bool port = Bitvec.to_bool (out port) in
  let responses = ref [] in
  List.iter
    (function
      | Drive _ -> ()
      | Read_custreg { reg; addr; data } ->
          let idx = match addr with Some a -> int a | None -> 0 in
          Rtl.Engine.set_input engine data (host.custreg ctx reg idx);
          Rtl.Engine.eval engine
      | Read_mem { addr; valid; data; elems } ->
          let value = host.mem_read ctx (int addr) (bool valid) elems in
          responses := { due = stage + 1; port = data; value } :: !responses
      | Write_rd { data; valid } -> host.write_rd ctx (out data) (bool valid)
      | Write_pc { data; valid } -> host.write_pc ctx (out data) (bool valid)
      | Write_custreg { reg; addr; data; valid } ->
          host.write_custreg ctx reg (Option.map int addr) (out data) (bool valid)
      | Write_mem { addr; data; valid } -> host.write_mem ctx (int addr) (out data) (bool valid))
    (ports p stage);
  !responses

(* ---- one instruction in isolation ---- *)

let required what = function Some v -> v | None -> raise (Cosim_error ("stimulus lacks " ^ what))

(* Run one instruction (or one always-block evaluation) through the module
   on [engine], an engine built for its netlist, after resetting it: every
   run starts from the state a fresh engine has. The sweep covers every
   stage the module uses plus two drain cycles; all stall inputs are held
   low. *)
let run_plan p engine (stim : stimulus) : response =
  let f = p.func in
  if Rtl.Engine.netlist engine != f.cf_hw.Hwgen.netlist then
    raise (Cosim_error (Printf.sprintf "engine was not built for %s's netlist" f.cf_name));
  Rtl.Engine.reset engine;
  set_stalls p engine ~frozen_below:0;
  let rd_write = ref None and pc_write = ref None in
  let custreg_writes = ref [] and mem_write = ref None and mem_read_request = ref None in
  let host =
    {
      custreg = (fun () reg idx -> stim.custreg reg idx);
      mem_read =
        (fun () addr valid elems ->
          mem_read_request := Some (addr, valid);
          stim.mem_read addr elems);
      write_rd = (fun () data valid -> rd_write := Some (data, valid));
      write_pc = (fun () data valid -> pc_write := Some (data, valid));
      write_custreg =
        (fun () reg idx data valid ->
          custreg_writes :=
            { cw_reg = reg; cw_index = idx; cw_data = data; cw_valid = valid } :: !custreg_writes);
      write_mem = (fun () addr data valid -> mem_write := Some (addr, data, valid));
    }
  in
  let value = function
    | Instr_word -> required "instruction word" stim.instr_word
    | Rs1 -> required "rs1" stim.rs1
    | Rs2 -> required "rs2" stim.rs2
    | Pc -> required "pc" stim.pc
  in
  let pending = ref [] in
  let max_cycle = p.last_stage + 2 in
  for cycle = p.first_stage to max_cycle do
    drive p engine ~stage:cycle ~pending:!pending value;
    Rtl.Engine.eval engine;
    pending := service p engine ~stage:cycle host ();
    Rtl.Engine.clock engine
  done;
  {
    rd_write = !rd_write;
    pc_write = !pc_write;
    custreg_writes = List.rev !custreg_writes;
    mem_write = !mem_write;
    mem_read_request = !mem_read_request;
    cycles = max_cycle - p.first_stage + 1;
  }

let run_on engine f stim = run_plan (plan f) engine stim

(* One-shot run on a fresh compiled engine. *)
let run (f : Flow.compiled_functionality) stim =
  run_on (Rtl.Engine.create f.cf_hw.Hwgen.netlist) f stim
