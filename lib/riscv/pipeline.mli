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
     for this), through {!Longnail.Cosim}'s port plan and per-stage
     operations, the same ones {!Longnail.Cosim.run_on} loops over;
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

(** An instruction in flight. *)
type slot = {
  s_pc : int;
  s_word : int;
  s_ti : Tast.tinstr;
  s_rs1 : int;  (** register fields, 0 when absent *)
  s_rs2 : int;
  s_rd : int;
  s_isax : (Longnail.Cosim.plan * Rtl.Engine.t) option;
      (** the ISAX module that executes the instruction *)
  mutable s_rs1v : int;
  mutable s_rs2v : int;
  mutable s_has_operands : bool;
  mutable s_value : int option;
      (** the forwardable rd value: a base instruction's from the operand
          stage on, an ISAX's once its WrRD to a nonzero rd was valid *)
  mutable s_new_pc : Bitvec.t option;  (** ISAX: valid WrPC *)
  mutable s_pending : Longnail.Cosim.mem_response list;
      (** ISAX: RdMem responses not yet delivered *)
  mutable s_vstage : int;  (** virtual stage while held past writeback *)
}
type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (** committed architectural state *)
  isaxes : (Longnail.Cosim.plan * Rtl.Engine.t) list;
      (** one port plan and engine per ISAX instruction module *)
  always : (Longnail.Cosim.plan * Rtl.Engine.t) list;
      (** one port plan and engine per always-block module *)
  stages : slot option array;
      (** index 1 .. writeback stage + 1; commit from the last *)
  mutable detached : slot list;  (** decoupled units past writeback *)
  mutable fetch_pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
}
val create : Longnail.Flow.compiled -> t
val read_gpr : t -> int -> int
val write_gpr : t -> int -> int -> unit
val write_pc : t -> int -> unit
val load_program : t -> ?base:int -> int list -> unit
val store_word : t -> int -> int -> unit

val step : t -> bool
(** One pipeline cycle; [false] once the program has halted and the pipe
    has drained. *)

val run : ?fuel:int -> t -> int
(** Step until the program halts; raises {!Machine.Out_of_fuel} after
    [fuel] cycles without halting. *)
