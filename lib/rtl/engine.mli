(** Common interface over RTL simulation engines: a record of the engine
    operations. Consumers hold a {!t} and never see which engine runs
    underneath. {!create} builds the compiled engine ({!Compiled}), the
    one every production consumer runs; tests build the interpreting
    oracle as the same record and assert bit-identical traces. *)

type t = {
  netlist : Netlist.t;
  reset : unit -> unit;
  set_input : string -> Bitvec.t -> unit;
  signal_opt : string -> Bitvec.t option;
      (** [None] when the engine has no value for this name *)
  eval : unit -> unit;  (** settle combinational logic *)
  clock : unit -> unit;  (** advance the registers *)
  output : string -> Bitvec.t;
}

(** [create m] builds the compiled engine for [m]. *)
val create : Netlist.t -> t

(** [reset t] returns [t] to the state {!create} left it in, so one
    engine can serve many independent runs of its module: a reset engine
    is indistinguishable from a fresh one (same outputs, same VCD
    trace). *)
val reset : t -> unit

val netlist : t -> Netlist.t
val set_input : t -> string -> Bitvec.t -> unit

(** Signal-observation API used by {!Vcd}: [None] when the engine has no
    value for this name. *)
val signal_opt : t -> string -> Bitvec.t option

val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t

(** Set the inputs, {!eval}, then {!clock}. *)
val cycle : t -> (string * Bitvec.t) list -> unit
