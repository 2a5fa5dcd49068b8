(** Architectural-state helpers shared by the three program engines
    ({!Machine}, {!Pipeline}, {!Rtl_loop}) over one CoreDSL interpreter
    state: 32-bit PC, GPR and word-memory access, instruction fields and
    the run-with-fuel loop. *)

(** Raised by {!run_with_fuel} when [step] has not returned [false]
    within the budget, which is the payload. *)
exception Out_of_fuel of int

val u32 : Bitvec.ty
val bv : int -> Bitvec.t
val read_pc : Coredsl.Interp.state -> int

(** Set the PC without marking it as written by the current instruction. *)
val write_pc : Coredsl.Interp.state -> int -> unit

val read_gpr : Coredsl.Interp.state -> int -> int

(** Writes to [x0] are dropped. *)
val write_gpr : Coredsl.Interp.state -> int -> int -> unit

val load_word : Coredsl.Interp.state -> int -> int
val store_word : Coredsl.Interp.state -> int -> int -> unit

(** [write_custreg st reg idx data] writes element [idx] of custom
    register [reg], cast to its type. *)
val write_custreg : Coredsl.Interp.state -> string -> int -> Bitvec.t -> unit

(** Little-endian store of [data]'s whole width. *)
val write_mem : Coredsl.Interp.state -> int -> Bitvec.t -> unit

(** Store the words from [base] on and point the PC at it. *)
val load_program : Coredsl.Interp.state -> base:int -> int list -> unit

(** [field_value ti word name] decodes field [name] of [ti] from [word]. *)
val field_value : Coredsl.Tast.tinstr -> Bitvec.t -> string -> int option

(** Call [step] until it returns [false]; raise {!Out_of_fuel} after
    [fuel] calls that all returned [true]. *)
val run_with_fuel : fuel:int -> (unit -> bool) -> unit
