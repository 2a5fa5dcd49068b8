(** Compiled RTL simulation engine: {!create} interns and topologically
    sorts the netlist once ({!Netlist.sort}) and compiles it into an
    array of straight-line update closures over one flat int arena. A
    signal of w bits takes ceil(w / 62) consecutive arena slots (62-bit
    limbs on a 64-bit host); one-limb signals run as single native-int
    operations, wider ones limb by limb. Results are bit-identical to
    the {!Ir.Comb_eval} semantics the interpreting test oracle runs.
    After {!create} no step allocates, except a division or remainder
    wider than a limb, which computes on boxed {!Bitvec} values; ports
    and signals are found through one hash lookup each, or bound once to
    a slot ({!int_input}, {!int_output}). Consumers reach
    it through {!Engine}. *)

type t

val create : Netlist.t -> t

(** Return every signal to the value {!create} gave it: inputs zero,
    registers at their init values, constants in place. A reset engine
    behaves exactly like a freshly created one. *)
val reset : t -> unit

val set_input : t -> string -> Bitvec.t -> unit

(** The current value of a named signal, [None] if the name is not a
    defined signal of the module. Unevaluated combinational signals read
    as zero (the interpreter has no value for them at all). *)
val signal_opt : t -> string -> Bitvec.t option

val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t

(** A port of at most one limb bound to its arena slot: see
    {!Engine.int_input} and {!Engine.int_output}. *)
val int_input : t -> string -> int -> unit
val int_output : t -> string -> unit -> int
