(** Native RV32I instruction-set simulator.

   A fast, hand-written golden model operating on OCaml ints. Tests use
   it as the oracle that cross-validates the CoreDSL-described RV32I
   (the same instructions executed through the reference interpreter
   must produce identical architectural state). Unlike the oracles in
   [oracle/], it is also production code and stays in lib/:
   [Pipeline.base_execute] runs every base instruction of the structural
   pipeline through it. *)

type t = { mutable pc : int; regs : int array; mem : (int, int) Hashtbl.t; }
val mask32 : int
val create : unit -> t
val read_reg : t -> int -> int
val write_reg : t -> int -> int -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
val read_half : t -> int -> int
val write_half : t -> int -> int -> unit
val sext : int -> int -> int
val s32 : int -> int
exception Unknown_instruction of int
val step_word : t -> int -> unit
val step : t -> unit
