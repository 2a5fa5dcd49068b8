(** Structural pipeline simulator with SCAIE-V-style ISAX integration.

   Where {!Machine} is a cycle-cost model, this module actually builds the
   pipeline: per-stage instruction slots, operand forwarding, interlock
   stalls and branch flushes — and wires the Longnail-generated RTL
   modules into it the way SCAIE-V does:

   - one {!Rtl.Engine.t} instance per ISAX module serves *all* in-flight
     instructions at once: the module's internal stallable pipeline
     registers carry each instruction's intermediate values, and the
     integration drives the stage-s input ports with whatever instruction
     currently occupies stage s (the ports are stage-suffixed precisely
     for this);
   - the module's stall_in_s ports follow the pipeline's stall boundaries:
     when the operand-stage interlock holds the front of the pipe, the
     corresponding module boundaries freeze with it while the back end
     keeps draining into bubbles;
   - ISAX result/valid outputs are captured in the stage they are bound to
     and committed architecturally in order at the end of the pipe;
   - always-blocks evaluate on every fetch and may redirect it with zero
     overhead (ZOL);
   - tightly-coupled modules (deeper than the writeback stage, no spawn)
     hold the whole pipeline while their module finishes — the paper's
     stall strategy;
   - decoupled modules (spawn) detach at writeback: the pipeline flows on
     and commits younger independent instructions while the detached unit
     keeps computing; its result writes back out of order through a
     scoreboard that stalls readers (and same-rd writers) until it lands —
     the paper's "lightweight out-of-order commit/writeback".

   Limitations (documented, asserted by the tests only where respected):
   pipelined cores only (no PicoRV32), and no store-to-load forwarding
   inside the pipeline window — a dependent load must trail a store by at
   least the pipe depth, which the test programs respect. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast
exception Pipeline_error of string
val u32 : Bitvec.ty
val bv : int -> Bitvec.t
type isax_capture = {
  mutable c_rd : (int * Bitvec.t) option;
  mutable c_pc : Bitvec.t option;
  mutable c_custreg : (string * int * Bitvec.t) list;
  mutable c_mem : (int * Bitvec.t) option;
}
type slot = {
  s_pc : int;
  s_word : int;
  s_ti : Tast.tinstr;
  s_isax : Longnail.Flow.compiled_functionality option;
  s_capture : isax_capture;
  mutable s_rs1v : int;
  mutable s_rs2v : int;
  mutable s_has_operands : bool;
  mutable s_result : int option;
  mutable s_vstage : int;
}
type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;
  sims : (string * Rtl.Engine.t) list;
  always_units : (Longnail.Flow.compiled_functionality * Rtl.Engine.t) list;
  stages : slot option array;
  mutable detached : slot list;
  mutable fetch_pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  depth : int;
}
val create : Longnail.Flow.compiled -> t
val read_gpr : t -> int -> int
val write_gpr : t -> int -> int -> unit
val write_pc : t -> int -> unit
val load_program : t -> ?base:int -> int list -> unit
val store_word : t -> int -> int -> unit
val field_value : Tast.tinstr -> int -> string -> int option
val forwarded_operand : t -> upto:int -> int -> int
val operand_hazard : t -> upto:int -> int -> bool
val netlist_of : t -> string -> Rtl.Netlist.t
val set_stall_inputs : t -> frozen_below:int -> unit
val drive_isax_inputs :
  t -> slot -> Longnail.Flow.compiled_functionality -> int -> unit
val service_isax_stage :
  t -> slot -> Longnail.Flow.compiled_functionality -> int -> unit
val tick_always : t -> unit
val base_execute : t -> slot -> unit
val commit : t -> slot -> unit
val make_capture : unit -> isax_capture
val step : t -> bool
val run : ?fuel:int -> t -> int
(** Step until the program halts; raises {!Machine.Out_of_fuel} after
    [fuel] cycles without halting. *)
