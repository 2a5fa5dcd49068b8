(** Cycle-accurate two-phase simulator for RTL netlists.

   Used to verify the functional correctness of generated ISAX modules
   against the CoreDSL reference interpreter (the paper verifies extended
   cores by RTL simulation of assembler programs, Section 5.3).

   Usage per clock cycle:
   - [set_input] for each input port,
   - [eval] to settle combinational logic,
   - read outputs with [output],
   - [clock] to advance the registers. *)

type t = {
  m : Netlist.t;
  values : (string, Bitvec.t) Hashtbl.t;
  order : Netlist.node list;
}
val u : int -> Bitvec.ty
val create : Netlist.t -> t

(** Return to the state {!create} left: the same as a fresh simulator. *)
val reset : t -> unit
val set_input : t -> string -> Bitvec.t -> unit
val signal : t -> string -> Bitvec.t
val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t
val cycle : t -> (string * Bitvec.t) list -> unit
