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

(* one binding's resolved ports: an [int -> unit] sets and a [unit -> int]
   reads a port of at most Bitvec.native_width bits on the plan's engine;
   the RdCustReg, RdMem, WrCustReg and WrMem data ports may be wider and
   stay named Bitvec ports *)
type port_op =
  | Drive of source * (int -> unit)
  | Read_custreg of { reg : string; addr : (unit -> int) option; data : string }
  | Read_mem of { addr : unit -> int; valid : unit -> int; data : string; elems : int }
  | Write_rd of { data : unit -> int; valid : unit -> int }
  | Write_pc of { data : unit -> int; valid : unit -> int }
  | Write_custreg of { reg : string; addr : (unit -> int) option; data : string; valid : unit -> int }
  | Write_mem of { addr : unit -> int; data : string; valid : unit -> int }

(* the order [service] handles a stage's operations in: register reads
   (which re-evaluate), then memory reads, then the writes *)
let rank = function Drive _ -> 0 | Read_custreg _ -> 1 | Read_mem _ -> 2 | _ -> 3

type plan = {
  func : Flow.compiled_functionality;
  engine : Rtl.Engine.t;
  first_stage : int;
  last_stage : int;
  stages : port_op array array;  (* index: stage - first_stage; by rank, then binding order *)
  stalls : (int * (int -> unit)) array;  (* boundary s, its stall_in_s port *)
  rd_ty : Bitvec.ty;  (* the WrRD and WrPC data ports' types, for run_plan *)
  pc_ty : Bitvec.ty;
}

let plan (f : Flow.compiled_functionality) engine =
  let hw = f.cf_hw in
  let nl = hw.Hwgen.netlist in
  if Rtl.Engine.netlist engine != nl then
    raise (Cosim_error (Printf.sprintf "engine was not built for %s's netlist" f.cf_name));
  let width ports name =
    List.find_map
      (fun (p : Rtl.Netlist.port) -> if p.port_name = name then Some p.port_width else None)
      ports
  in
  let input = Rtl.Engine.int_input engine and output = Rtl.Engine.int_output engine in
  (* the type of the first [opname] binding's data output *)
  let data_ty opname =
    List.find_map
      (fun (b : Hwgen.iface_binding) ->
        if b.ib_opname = opname then width nl.outputs (List.assoc "data" b.ib_ports) else None)
      hw.bindings
    |> Option.value ~default:32 |> Bitvec.unsigned_ty
  in
  let op (b : Hwgen.iface_binding) =
    let port role =
      match List.assoc_opt role b.ib_ports with
      | Some p -> p
      | None -> raise (Cosim_error (Printf.sprintf "binding %s lacks %s port" b.ib_iface role))
    in
    let addr = Option.map output (List.assoc_opt "addr" b.ib_ports) in
    let valid () = output (port "valid") in
    match b.ib_opname with
    | "lil.instr_word" -> Some (Drive (Instr_word, input (port "data")))
    | "lil.read_rs1" -> Some (Drive (Rs1, input (port "data")))
    | "lil.read_rs2" -> Some (Drive (Rs2, input (port "data")))
    | "lil.read_pc" -> Some (Drive (Pc, input (port "data")))
    | "lil.read_custreg" ->
        let data = port "data" in
        Option.map
          (fun _ -> Read_custreg { reg = Option.get b.ib_reg; addr; data })
          (width nl.inputs data)
    | "lil.read_mem" ->
        let data = port "data" in
        let bits = Option.value ~default:32 (width nl.inputs data) in
        Some
          (Read_mem { addr = output (port "addr"); valid = valid (); data; elems = max 1 (bits / 8) })
    | "lil.write_rd" -> Some (Write_rd { data = output (port "data"); valid = valid () })
    | "lil.write_pc" -> Some (Write_pc { data = output (port "data"); valid = valid () })
    | "lil.write_custreg" ->
        Some
          (Write_custreg { reg = Option.get b.ib_reg; addr; data = port "data"; valid = valid () })
    | "lil.write_mem" ->
        Some (Write_mem { addr = output (port "addr"); data = port "data"; valid = valid () })
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
        |> List.stable_sort (fun a b -> compare (rank a) (rank b))
        |> Array.of_list)
  in
  let stalls =
    List.filter_map
      (fun (p : Rtl.Netlist.port) ->
        let n = p.port_name in
        if String.length n > 9 && String.sub n 0 9 = "stall_in_" then
          Some (int_of_string (String.sub n 9 (String.length n - 9)), input n)
        else None)
      nl.inputs
  in
  let rd_ty = data_ty "lil.write_rd" and pc_ty = data_ty "lil.write_pc" in
  { func = f; engine; first_stage; last_stage; stages; stalls = Array.of_list stalls; rd_ty; pc_ty }

let func p = p.func
let engine p = p.engine
let last_stage p = p.last_stage

let ports p stage =
  if stage < p.first_stage || stage > p.last_stage then [||] else p.stages.(stage - p.first_stage)

let custreg_reads p ~stage =
  Array.fold_right (fun op acc -> match op with Read_custreg r -> r.reg :: acc | _ -> acc) (ports p stage) []

let writes p target ~from =
  let hits = function
    | Write_custreg w -> target = `Custreg w.reg
    | Write_mem _ -> target = `Mem
    | _ -> false
  in
  let rec go s = s <= p.last_stage && (Array.exists hits (ports p s) || go (s + 1)) in
  go from

(* ---- the per-cycle operations ---- *)

type mem_response = { due : int; port : string; value : Bitvec.t }

type 'ctx host = {
  custreg : 'ctx -> string -> int -> Bitvec.t;
  mem_read : 'ctx -> int -> bool -> int -> Bitvec.t;
  write_rd : 'ctx -> int -> bool -> unit;
  write_pc : 'ctx -> int -> bool -> unit;
  write_custreg : 'ctx -> string -> int option -> Bitvec.t -> bool -> unit;
  write_mem : 'ctx -> int -> Bitvec.t -> bool -> unit;
}

let set_stalls p ~frozen_below =
  Array.iter (fun (s, set) -> set (Bool.to_int (s < frozen_below))) p.stalls

let drive p ~stage ~pending value ctx =
  let ops = ports p stage in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with Drive (src, set) -> set (value ctx src) | _ -> ()
  done;
  List.iter (fun r -> if r.due = stage then Rtl.Engine.set_input p.engine r.port r.value) pending

(* RdMem responses are due one stage after the request: the module reads
   the data port in stage + latency, and the latency is 1 on every
   registered core *)
let service p ~stage host ctx =
  let ops = ports p stage and engine = p.engine in
  let responses = ref [] in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | Drive _ -> ()
    | Read_custreg { reg; addr; data } ->
        let idx = match addr with Some a -> a () | None -> 0 in
        Rtl.Engine.set_input engine data (host.custreg ctx reg idx);
        Rtl.Engine.eval engine
    | Read_mem { addr; valid; data; elems } ->
        let value = host.mem_read ctx (addr ()) (valid () <> 0) elems in
        responses := { due = stage + 1; port = data; value } :: !responses
    | Write_rd { data; valid } -> host.write_rd ctx (data ()) (valid () <> 0)
    | Write_pc { data; valid } -> host.write_pc ctx (data ()) (valid () <> 0)
    | Write_custreg { reg; addr; data; valid } ->
        host.write_custreg ctx reg
          (Option.map (fun a -> a ()) addr)
          (Rtl.Engine.output engine data) (valid () <> 0)
    | Write_mem { addr; data; valid } ->
        host.write_mem ctx (addr ()) (Rtl.Engine.output engine data) (valid () <> 0)
  done;
  !responses

(* ---- one instruction in isolation ---- *)

let required what = function Some v -> v | None -> raise (Cosim_error ("stimulus lacks " ^ what))

(* Run one instruction (or one always-block evaluation) through the
   module after resetting its engine: every run starts from the state a
   fresh engine has. The sweep covers every stage the module uses plus
   two drain cycles; all stall inputs are held low. *)
let run_plan p (stim : stimulus) : response =
  let engine = p.engine in
  Rtl.Engine.reset engine;
  set_stalls p ~frozen_below:0;
  let rd_write = ref None and pc_write = ref None in
  let custreg_writes = ref [] and mem_write = ref None and mem_read_request = ref None in
  let host =
    {
      custreg = (fun () reg idx -> stim.custreg reg idx);
      mem_read =
        (fun () addr valid elems ->
          mem_read_request := Some (addr, valid);
          stim.mem_read addr elems);
      write_rd = (fun () data valid -> rd_write := Some (Bitvec.of_int p.rd_ty data, valid));
      write_pc = (fun () data valid -> pc_write := Some (Bitvec.of_int p.pc_ty data, valid));
      write_custreg =
        (fun () reg idx data valid ->
          custreg_writes :=
            { cw_reg = reg; cw_index = idx; cw_data = data; cw_valid = valid } :: !custreg_writes);
      write_mem = (fun () addr data valid -> mem_write := Some (addr, data, valid));
    }
  in
  let value () src =
    Bitvec.to_int
      (match src with
      | Instr_word -> required "instruction word" stim.instr_word
      | Rs1 -> required "rs1" stim.rs1
      | Rs2 -> required "rs2" stim.rs2
      | Pc -> required "pc" stim.pc)
  in
  let pending = ref [] in
  let max_cycle = p.last_stage + 2 in
  for cycle = p.first_stage to max_cycle do
    drive p ~stage:cycle ~pending:!pending value ();
    Rtl.Engine.eval engine;
    pending := service p ~stage:cycle host ();
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

let run_on engine f stim = run_plan (plan f engine) stim

(* One-shot run on a fresh compiled engine. *)
let run (f : Flow.compiled_functionality) stim =
  run_on (Rtl.Engine.create f.cf_hw.Hwgen.netlist) f stim
