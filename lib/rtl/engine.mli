(** Common interface over the RTL simulation engines: the compiled
    engine ({!Compiled}, the one every consumer runs) and the two-phase
    interpreter ({!Sim}), kept only as a test oracle. Consumers hold an
    {!t} and never see which engine runs underneath; cross-engine tests
    create one of each and assert bit-identical traces. *)

type kind = Interp | Compiled

type t = I of Sim.t | C of Compiled.t

(** [create ?kind m] builds a simulator for [m]; the compiled engine is
    the default. *)
val create : ?kind:kind -> Netlist.t -> t

(** [reset t] returns [t] to the state {!create} left it in, so one
    engine can serve many independent runs of its module: a reset engine
    is indistinguishable from a fresh one (same outputs, same VCD
    trace). *)
val reset : t -> unit

val kind : t -> kind
val netlist : t -> Netlist.t
val set_input : t -> string -> Bitvec.t -> unit
val signal : t -> string -> Bitvec.t

(** Signal-observation API used by {!Vcd}: [None] when the engine has no
    value for this name. *)
val signal_opt : t -> string -> Bitvec.t option

val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t
val cycle : t -> (string * Bitvec.t) list -> unit
