(** Common interface over RTL simulation engines: a record of the engine
    operations. Consumers hold a {!t} and never see which engine runs
    underneath. {!create} builds the compiled engine ({!Compiled}), the
    one every production consumer runs; tests build the interpreting
    oracle as the same record and assert bit-identical traces.

    A port of at most {!Bitvec.native_width} bits can also be bound once
    to a native-int accessor ({!int_input}, {!int_output}), so a host
    that moves it every cycle ([Longnail.Cosim]'s SCAIE-V ports) pays no
    name lookup and builds no {!Bitvec}: the compiled engine reads and
    writes its arena slot, the oracle goes through its {!Bitvec} ports. *)

type t = {
  netlist : Netlist.t;
  reset : unit -> unit;
  set_input : string -> Bitvec.t -> unit;
  signal_opt : string -> Bitvec.t option;
      (** [None] when the engine has no value for this name *)
  eval : unit -> unit;  (** settle combinational logic *)
  clock : unit -> unit;  (** advance the registers *)
  output : string -> Bitvec.t;
  int_input : string -> int -> unit;
  int_output : string -> unit -> int;
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

(** [int_input t name] resolves input port [name] once into a setter of
    its low bits; [int_output t name] into a getter of its unsigned
    value. Both raise [Invalid_argument] for a port wider than
    {!Bitvec.native_width} bits, {!Netlist.Netlist_error} for an unknown
    one. *)
val int_input : t -> string -> int -> unit
val int_output : t -> string -> unit -> int

(** Set the inputs, {!eval}, then {!clock}. *)
val cycle : t -> (string * Bitvec.t) list -> unit
