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
   - a base instruction executes once, at the operand stage: its CoreDSL
     behaviour runs on the committed state with the forwarded operands
     installed, and its slot captures the rd value, a PC write and its
     stores, buffered through an {!Coredsl.Interp.mem_port} whose reads
     see the youngest older in-flight store, else committed memory. ISAX
     outputs are captured in the stage they are bound to; both commit in
     order at the end of the pipe: rd, buffered stores, then the redirect;
   - a slot whose redirect is known (a base instruction wrote the PC, or
     an ISAX's WrPC was serviced valid) squashes every younger slot and
     holds fetch until it commits;
   - ISAX custom-register and memory writes apply in their scheduled
     stage; a base load or store waits at the operand stage for older
     ISAX memory writes, and an ISAX that writes memory for older
     buffered base stores;
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

   Each cycle does only live work:

   - an ISAX module is stalled, driven, evaluated and clocked only in the
     cycles where one of its instructions is in the pipe or detached.
     This is exact: {!Longnail.Hwgen} emits only stage-boundary pipeline
     registers, and an instruction in stage s reads only its own stage-s
     inputs and the registers it latched itself when it crossed into s,
     so what an idle module computes and latches is overwritten before
     any instruction reads it. Stage-0 logic sees only constants and
     inputs the pipe never drives, so a stage-0 register holds one value
     from the module's first clock on; {!create} evaluates and clocks
     every module once, as the first cycle of the pipe would. A module
     whose only instructions are detached is evaluated once per
     instruction, beside the pipe, right before it is serviced;
   - fetch reads the word at the fetch PC as a native int and looks it up
     in a decode table filled lazily per word (a slot holding the
     instruction, its register fields, whether it is a base load or store
     and its ISAX module, or EBREAK); keying on the word keeps
     self-modifying code exact;
   - ports move as native ints through each module's
     {!Longnail.Cosim.plan}, and base instructions share one memory port.

   Limitations: pipelined cores only ({!create} rejects an FSM-sequenced
   core such as PicoRV32 with E0603), and two ISAXes' memory accesses are
   ordered only by their scheduled stages. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast

(** An instruction in flight, with its operands and captured effects. *)
type slot

(** The instruction a slot holds. *)
val slot_instr : slot -> Tast.tinstr

(** An ISAX instruction module: its port plan on its engine. *)
type isax

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (** committed architectural state *)
  isaxes : isax list;  (** one per ISAX instruction module *)
  always : Longnail.Cosim.plan list;
      (** one port plan on its engine per always-block module *)
  decoded : (int, slot option) Hashtbl.t;
      (** the decode table: per fetched word, the slot fetch copies; [None]
          halts fetch (EBREAK, or no instruction matches) *)
  stages : slot option array;
      (** index 1 .. writeback stage + 1; commit from the last *)
  mutable detached : slot list;  (** decoupled units past writeback *)
  mutable fetch_pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  mem_port : Interp.mem_port;
      (** the one memory port: the view of the slot at [port_stage] *)
  mutable port_stage : int;
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
