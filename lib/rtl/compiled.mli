(** Compiled RTL simulation engine: the netlist is topologically sorted
    once and compiled into an array of straight-line update closures over
    a flat mutable signal arena. Signals of at most [Sys.int_size - 1]
    bits run as unboxed native-int operations; wider signals (and any
    node touching one) fall back to the {!Ir.Comb_eval} reference
    semantics on {!Bitvec}, keeping results bit-identical to {!Sim}.

    The API mirrors {!Sim}; use {!Engine} to select between the two. *)

type t

val narrow_limit : int
val is_narrow : int -> bool

val create : Netlist.t -> t

(** Return every signal to the value {!create} gave it: inputs zero,
    registers at their init values, constants in place. A reset engine
    behaves exactly like a freshly created one. *)
val reset : t -> unit

val netlist : t -> Netlist.t
val set_input : t -> string -> Bitvec.t -> unit

(** The current value of a named signal, [None] if the name is not a
    defined signal of the module. Unevaluated combinational signals read
    as zero (the interpreter has no value for them at all). *)
val signal_opt : t -> string -> Bitvec.t option

val signal : t -> string -> Bitvec.t
val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t
val cycle : t -> (string * Bitvec.t) list -> unit
