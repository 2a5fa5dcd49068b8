(** Cycle-level machine models of the four host cores.

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

(** Raised by {!run}, {!Pipeline.run} and {!Rtl_loop.run} when the
    program has not halted (reached EBREAK or an undecodable word) within
    the budget, which is the payload: instructions for {!run} and
    {!Rtl_loop.run}, cycles for {!Pipeline.run}. *)
exception Out_of_fuel of int

(** The registry's per-core cycle-cost parameters. *)
type timing = Scaiev.Core_registry.timing = {
  fsm_base : int;
  mem_wait : int;
  branch_penalty : int;
  decoupled_issue_stall : int;
}
val vexriscv_timing : timing

(** Look the datasheet's core up in {!Scaiev.Core_registry}; raises
    {!Machine_error} for an unregistered core. *)
val timing_for : Scaiev.Datasheet.t -> timing
type isax_timing = {
  it_mode : Scaiev.Config.mode;
  it_extra_stall : int;
  it_result_latency : int;
  it_uses_mem : bool;
  it_writes_rd : bool;
}
val isax_timing_of : Longnail.Flow.compiled -> (string * isax_timing) list
type t = {
  tu : Tast.tunit;
  st : Interp.state;
  timing : timing;
  isax : (string * isax_timing) list;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  pending : int array;
  infos : (string, isax_timing option * bool) Hashtbl.t;
      (** per instruction name: its ISAX timing, whether it accesses memory *)
}
val create :
  ?isax:(string * isax_timing) list -> timing:timing -> Tast.tunit -> t
val of_compiled : Longnail.Flow.compiled -> t
val read_pc : t -> int
val write_pc : t -> int -> unit
val read_gpr : t -> int -> int
val write_gpr : t -> int -> int -> unit
val load_program : t -> ?base:int -> int list -> unit
val store_word : t -> int -> int -> unit
val load_word : t -> int -> int
val mem_instr_names : string list
val step : t -> bool
val run : ?fuel:int -> t -> int
(** Step until the program halts and return the cycle count; raises
    {!Out_of_fuel} after [fuel] instructions without halting. *)

(** {!Asm.encoder}, under its older name. *)
val isax_encoder : Tast.tunit -> Asm.custom_encoder
