(** RTL-in-the-loop program execution.

   Runs a complete assembler program against an extended core where every
   custom-instruction and always-block *executes through the generated RTL*
   (via the co-simulation harness) while the base RV32I instructions run in
   the reference interpreter. This is the closest analogue of the paper's
   verification methodology — "RTL simulation of the execution of
   handwritten assembler programs" (Section 5.3) — and the integration
   tests compare its final architectural state against a pure-interpreter
   run of the same program. *)

module Interp = Coredsl.Interp
exception Rtl_loop_error of string
type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;
  modules : (Longnail.Cosim.plan * Rtl.Engine.t) list;
      (** one port plan and compiled RTL engine per functionality, in
          [compiled.funcs] order *)
  mutable instret : int;
  mutable halted : bool;
}

val create : Longnail.Flow.compiled -> t
(** [create compiled] prepares a run; every ISAX and always-block
    executes through the compiled RTL simulation engine. Each
    functionality's plan and engine are built once here; the engine is
    reset before every instruction or always-block evaluation. *)

val read_pc : t -> int
val write_pc : t -> int -> unit
val read_gpr : t -> int -> int
val load_program : t -> ?base:int -> int list -> unit
val step : t -> bool
val run : ?fuel:int -> t -> int
(** Step until the program halts; raises {!Machine.Out_of_fuel} after
    [fuel] instructions without halting. *)
