(** Co-simulation harness: drive a generated ISAX module cycle by cycle
    through its SCAIE-V port bindings, the way the host core would.

    This is the one host-side implementation of the SCAIE-V port
    protocol. A {!plan} groups a module's interface bindings by stage;
    {!set_stalls}, {!drive} and {!service} are the per-cycle operations a
    host performs on it. {!run_on} loops them over one instruction in
    isolation (the integration tests, the examples and RTL-in-the-loop
    verify the RTL against the CoreDSL interpreter this way, as the paper
    does by RTL simulation, Section 5.3); [Riscv.Pipeline] calls them
    stage by stage for every instruction in flight. *)

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

(** A module's bindings grouped by stage, with resolved port names, the
    RdMem response widths and the [stall_in_*] ports. Build it once per
    functionality. *)
type plan

val plan : Flow.compiled_functionality -> plan
(** Raises {!Cosim_error} when a binding lacks a port its interface
    needs. *)

val func : plan -> Flow.compiled_functionality

val last_stage : plan -> int
(** The last stage any interface of the module is active in. *)

val custreg_reads : plan -> stage:int -> string list
(** The custom registers the module reads in [stage]. *)

val writes_custreg : plan -> string -> from:int -> bool
(** [writes_custreg p reg ~from] holds when the module writes [reg] in
    some stage [>= from]. *)

(** {1 Per-cycle operations} *)

(** The host-driven inputs: RdInstr, RdRS1, RdRS2 and RdPC. *)
type source = Instr_word | Rs1 | Rs2 | Pc

(** An RdMem response, delivered by {!drive} in stage [due]. *)
type mem_response

(** How a host answers reads and takes writes. [ctx] identifies the
    instruction being serviced. Writes arrive with their valid bit. *)
type 'ctx host = {
  custreg : 'ctx -> string -> int -> Bitvec.t;  (** register, index -> value *)
  mem_read : 'ctx -> int -> bool -> int -> Bitvec.t;
      (** address, request valid, elements -> response *)
  write_rd : 'ctx -> Bitvec.t -> bool -> unit;
  write_pc : 'ctx -> Bitvec.t -> bool -> unit;
  write_custreg : 'ctx -> string -> int option -> Bitvec.t -> bool -> unit;
      (** register, index (register files only), data, valid *)
  write_mem : 'ctx -> int -> Bitvec.t -> bool -> unit;  (** address, data, valid *)
}

val set_stalls : plan -> Rtl.Engine.t -> frozen_below:int -> unit
(** Raise [stall_in_s] for every boundary [s < frozen_below], lower the
    rest. *)

val drive :
  plan -> Rtl.Engine.t -> stage:int -> pending:mem_response list -> (source -> Bitvec.t) -> unit
(** Set the stage's RdInstr/RdRS1/RdRS2/RdPC inputs from the source
    function (called only for bound sources) and deliver the [pending]
    RdMem responses due in this stage. *)

val service : plan -> Rtl.Engine.t -> stage:int -> 'ctx host -> 'ctx -> mem_response list
(** After an evaluation of the stage: answer its RdCustReg reads (each
    followed by a re-evaluation), issue its RdMem reads, and report its
    WrRD, WrPC, WrCustReg and WrMem outputs to the host, in that order.
    Returns the RdMem responses, due one stage later (the RdMem latency)
    for the next {!drive} of the same instruction. *)

(** {1 One instruction in isolation} *)

val run_plan : plan -> Rtl.Engine.t -> stimulus -> response
(** [run_plan p engine stim] runs one instruction (or always-block
    evaluation) through [p]'s module on [engine], which must have been
    created for its netlist ({!Cosim_error} otherwise). The engine is
    {!Rtl.Engine.reset} first, so the response equals that of a fresh
    engine; callers that run a module many times build its plan and
    engine once. *)

val run_on : Rtl.Engine.t -> Flow.compiled_functionality -> stimulus -> response
(** [run_on engine f stim] is [run_plan (plan f) engine stim]. *)

val run :
  ?engine:Rtl.Engine.kind -> Flow.compiled_functionality -> stimulus -> response
(** [run ?engine f stim] is [run_on] on a fresh engine of the chosen kind
    (compiled by default; pass [~engine:Rtl.Engine.Interp] to cross-check
    the reference interpreter). *)
