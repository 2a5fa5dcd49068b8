(** Native RV32I instruction-set simulator: a hand-written golden model
   on OCaml ints, and the test oracle for the CoreDSL-described RV32I
   that every program engine executes (the same instructions run through
   {!Coredsl.Interp} must produce identical architectural state). *)

type t = { mutable pc : int; regs : int array; mem : (int, int) Hashtbl.t; }
val mask32 : int
val create : unit -> t
val read_reg : t -> int -> int
val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
exception Unknown_instruction of int
val step : t -> unit
