(** Cycle-accurate two-phase interpreter for RTL netlists: the test
   oracle for the compiled engine ({!Rtl.Compiled}), which production
   runs (the paper verifies extended cores by RTL simulation of
   assembler programs, Section 5.3).

   Usage per clock cycle:
   - [set_input] for each input port,
   - [eval] to settle combinational logic,
   - read outputs with [output],
   - [clock] to advance the registers. *)

type t
val create : Rtl.Netlist.t -> t
val set_input : t -> string -> Bitvec.t -> unit
val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t
val cycle : t -> (string * Bitvec.t) list -> unit

(** A fresh interpreter as an {!Rtl.Engine.t}, to hand to any engine
    consumer ([Longnail.Cosim.run_on], {!Rtl.Vcd.trace}) in place of
    {!Rtl.Engine.create}'s compiled engine. Its [reset] clears the value
    table and re-runs the initialisation: the same as a fresh
    interpreter. *)
val engine : Rtl.Netlist.t -> Rtl.Engine.t
