(** Co-simulation harness: drive a generated ISAX module cycle by cycle
    through its SCAIE-V port bindings, the way the host core would.

    This is the one host-side implementation of the SCAIE-V port
    protocol. A {!plan} groups a module's interface bindings by stage,
    their ports resolved once on one engine; {!set_stalls}, {!drive} and
    {!service} are the per-cycle operations a host performs on it.
    {!run_plan} loops them over one instruction in
    isolation (the integration tests, the examples and RTL-in-the-loop
    verify the RTL against the CoreDSL interpreter this way, as the paper
    does by RTL simulation, Section 5.3); [Riscv.Pipeline] calls them
    stage by stage for every instruction in flight.

    A plan moves the ports of at most {!Bitvec.native_width}
    bits as native ints through {!Rtl.Engine.int_input} and
    {!Rtl.Engine.int_output}, with no name lookup and no {!Bitvec}: the
    stall bits, the instruction word, rs1/rs2/pc, valid bits, addresses
    and the WrRD/WrPC data. Custom-register and RdMem/WrMem data may be
    wider and stay named {!Bitvec} ports. *)

(** The values the "host core" supplies to the module under test. *)
type stimulus = {
  instr_word : Bitvec.t option;
  rs1 : Bitvec.t option;
  rs2 : Bitvec.t option;
  pc : Bitvec.t option;
  custreg : string -> int -> Bitvec.t;  (** custom register read responses *)
  mem_read : int -> int -> Bitvec.t;  (** address, elems -> load response *)
}
val default_stimulus : stimulus
type custreg_write = {
  cw_reg : string;
  cw_index : int option;
  cw_data : Bitvec.t;
  cw_valid : bool;
}
type response = {
  rd_write : (Bitvec.t * bool) option;
  pc_write : (Bitvec.t * bool) option;
  custreg_writes : custreg_write list;
  mem_write : (int * Bitvec.t * bool) option;
  mem_read_request : (int * bool) option;
  cycles : int;
}
exception Cosim_error of string

(** {1 The port plan} *)

(** A module's bindings grouped by stage, with their ports resolved on
    one engine, the RdMem response widths and the [stall_in_*] ports.
    Build it once per functionality and engine. *)
type plan

val plan : Flow.compiled_functionality -> Rtl.Engine.t -> plan
(** [plan f engine] raises {!Cosim_error} unless [engine] was created for
    [f]'s netlist, or when a binding lacks a port its interface needs. *)

val func : plan -> Flow.compiled_functionality
val engine : plan -> Rtl.Engine.t

val last_stage : plan -> int
(** The last stage any interface of the module is active in. *)

val custreg_reads : plan -> stage:int -> string list
(** The custom registers the module reads in [stage]. *)

val writes : plan -> [ `Custreg of string | `Mem ] -> from:int -> bool
(** [writes p target ~from] holds when the module writes [target] (a
    custom register, or memory) in some stage [>= from]. *)

(** {1 Per-cycle operations} *)

(** The host-driven inputs: RdInstr, RdRS1, RdRS2 and RdPC. *)
type source = Instr_word | Rs1 | Rs2 | Pc

(** An RdMem response, delivered by {!drive} in stage [due]. *)
type mem_response

(** How a host answers reads and takes writes. [ctx] identifies the
    instruction being serviced. Writes arrive with their valid bit; WrRD
    and WrPC data as the port's unsigned value. *)
type 'ctx host = {
  custreg : 'ctx -> string -> int -> Bitvec.t;  (** register, index -> value *)
  mem_read : 'ctx -> int -> bool -> int -> Bitvec.t;
      (** address, request valid, elements -> response *)
  write_rd : 'ctx -> int -> bool -> unit;
  write_pc : 'ctx -> int -> bool -> unit;
  write_custreg : 'ctx -> string -> int option -> Bitvec.t -> bool -> unit;
      (** register, index (register files only), data, valid *)
  write_mem : 'ctx -> int -> Bitvec.t -> bool -> unit;  (** address, data, valid *)
}

val set_stalls : plan -> frozen_below:int -> unit
(** Raise [stall_in_s] for every boundary [s < frozen_below], lower the
    rest. *)

val drive :
  plan -> stage:int -> pending:mem_response list -> ('ctx -> source -> int) -> 'ctx -> unit
(** [drive p ~stage ~pending value ctx] sets the stage's
    RdInstr/RdRS1/RdRS2/RdPC inputs to the low bits of [value ctx src]
    (called only for bound sources) and delivers the [pending] RdMem
    responses due in this stage. *)

val service : plan -> stage:int -> 'ctx host -> 'ctx -> mem_response list
(** After an evaluation of the stage: answer its RdCustReg reads (each
    followed by a re-evaluation), issue its RdMem reads, and report its
    WrRD, WrPC, WrCustReg and WrMem outputs to the host, in that order.
    Returns the RdMem responses, due one stage later (the RdMem latency)
    for the next {!drive} of the same instruction. *)

(** {1 One instruction in isolation} *)

val run_plan : plan -> stimulus -> response
(** [run_plan p stim] runs one instruction (or always-block evaluation)
    through [p]'s module on its engine. The engine is
    {!Rtl.Engine.reset} first, so the response equals that of a fresh
    engine; callers that run a module many times build its plan once. *)

val run_on : Rtl.Engine.t -> Flow.compiled_functionality -> stimulus -> response
(** [run_on engine f stim] is [run_plan (plan f engine) stim]. *)

val run : Flow.compiled_functionality -> stimulus -> response
(** [run f stim] is [run_on] on a fresh compiled engine; tests pass the
    interpreting oracle to {!run_on} to cross-check it. *)
