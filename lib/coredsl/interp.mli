(** Reference interpreter for typed CoreDSL behaviors.

   Executes instruction behaviors and always-blocks against an
   architectural-state model. This is the golden model: the RTL generated
   by Longnail is co-simulated against it in the integration tests
   (Section 5.3 of the paper verifies extended cores by RTL simulation). *)

module Bn = Bitvec.Bn
exception Runtime_error of Ast.loc * string

(** The decode table {!create} builds: one hash table per distinct
    (encoding width, fixed-bit mask) group of the unit's instructions. *)
type decoder

type state = {
  unit_ : Tast.tunit;
  regs : (string, Bitvec.t array) Hashtbl.t;
  mems : (string, (int, Bitvec.t) Hashtbl.t) Hashtbl.t;
  decoder : decoder;
  pc_reg : Bitvec.t array option;  (** the [is_pc] register, if any *)
  mutable pc_written : bool;
      (** whether the last {!exec_instr} wrote the PC register *)
}

val create : Tast.tunit -> state
val reg_array : state -> string -> Bitvec.t array
val read_reg : state -> string -> Bitvec.t
val write_reg : state -> string -> Bitvec.t -> unit
val read_regfile : state -> string -> int -> Bitvec.t
val write_regfile : state -> string -> int -> Bitvec.t -> unit
val read_mem_elem : state -> string -> int -> Bitvec.t
val write_mem_elem : state -> string -> int -> Bitvec.t -> unit

(** Element reads and writes of an address space (its name, then the
    address), standing in for the state's memory. *)
type mem_port = {
  read_elem : string -> int -> Bitvec.t;
  write_elem : string -> int -> Bitvec.t -> unit;
}

(** Little-endian multi-element access: [read_mem st space addr elems],
    through [mem] if given. *)
val read_mem : ?mem:mem_port -> state -> string -> int -> int -> Bitvec.t
val write_mem : state -> string -> int -> int -> Bitvec.t -> unit
val decode_field : Bitvec.t -> Tast.field_info -> Bitvec.t
val matches : Tast.tinstr -> Bitvec.t -> bool

(** Execute one instruction's behavior, its memory reads and writes
    through [mem] if given; clears and then sets [pc_written]. *)
val exec_instr :
  ?mem:mem_port -> state -> Tast.tinstr -> instr_word:Bitvec.t -> unit

val exec_always : state -> Tast.talways -> unit

(** The first instruction of [tunit.tinstrs] whose encoding {!matches}
    the word, found through the decode table: the same answer as a
    linear [List.find_opt], including its first-match priority when
    encodings overlap. *)
val decode : state -> Bitvec.t -> Tast.tinstr option

val encode : Tast.tinstr -> (string * Bitvec.t) list -> Bitvec.t
