(** Co-simulation harness: drive a generated ISAX module cycle by cycle
   through its SCAIE-V port bindings, the way the host core would.

   Used by the integration tests to verify that the RTL produced by
   Longnail matches the CoreDSL reference interpreter (the paper verifies
   extended cores by RTL simulation, Section 5.3), and by the examples to
   demonstrate the generated hardware actually computing. *)

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

val run_on : Rtl.Engine.t -> Flow.compiled_functionality -> stimulus -> response
(** [run_on engine f stim] runs one instruction (or always-block
    evaluation) through [f]'s module on [engine], which must have been
    created for [f]'s netlist ({!Cosim_error} otherwise). The engine is
    {!Rtl.Engine.reset} first, so the response equals that of a fresh
    engine; callers that run a module many times build its engine once. *)

val run :
  ?engine:Rtl.Engine.kind -> Flow.compiled_functionality -> stimulus -> response
(** [run ?engine f stim] is [run_on] on a fresh engine of the chosen kind
    (compiled by default; pass [~engine:Rtl.Engine.Interp] to cross-check
    the reference interpreter). *)
