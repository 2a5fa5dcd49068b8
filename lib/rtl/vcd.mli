(** Value-change-dump (VCD) tracing for the RTL simulators.

   Records every named signal of a simulated module cycle by cycle and
   renders a standard VCD file that waveform viewers (GTKWave, Surfer)
   understand. Sampling goes through {!Engine.signal_opt}, so tracing is
   engine-agnostic. *)

type signal = { sg_name : string; sg_width : int; sg_id : string; }
type t = {
  mutable signals : signal list;
  mutable changes : (int * string * Bitvec.t) list;
  mutable last : (string, Bitvec.t) Hashtbl.t;
  mutable time : int;
  module_name : string;
}
val ident_of_index : int -> string
val create : module_name:string -> t
val watch_module : t -> Netlist.t -> unit
val sample : t -> Engine.t -> unit
val bin_of : Bitvec.t -> string
val render : t -> string

(** [trace eng ~cycles ~drive] simulates [eng]'s module for [cycles]
    cycles from its current state and returns the VCD text. *)
val trace :
  Engine.t -> cycles:int -> drive:(int -> (string * Bitvec.t) list) -> string

(** Byte equality of two rendered traces (VCD output is deterministic,
    so bit-identical behavior means byte-identical dumps). *)
val traces_equal : string -> string -> bool

(** First differing line of two traces as [(line, left, right)]; [None]
    when the traces are equal. *)
val first_divergence : string -> string -> (int * string * string) option
