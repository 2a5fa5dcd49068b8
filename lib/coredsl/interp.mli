(** Staged evaluator for typed CoreDSL behaviors.

   Executes instruction behaviors and always-blocks against an
   architectural-state model. This is the golden model: every program
   engine runs the base instructions through it, and the generated RTL
   is co-simulated against it (Section 5.3 of the paper).

   Each instruction, always-block and function body is staged at most
   once per {!state}, lazily on its first execution, into closures over a
   frame: locals and encoding fields are slots, registers the state's
   arrays, and a call jumps to the callee's staged body. Values of at
   most {!Bitvec.native_width} bits run on native ints, wider ones on
   {!Bitvec}. The tree-walker this replaced is the test oracle in
   [oracle/], which must agree on every register, memory element,
   [pc_written] and {!Runtime_error}. *)

module Bn = Bitvec.Bn
exception Runtime_error of Ast.loc * string

(** The decode table {!create} builds: one hash table per distinct
    (encoding width, fixed-bit mask) group of the unit's instructions. *)
type decoder

(** The bodies staged so far. *)
type staged

type state = {
  unit_ : Tast.tunit;
  regs : (string, Bitvec.t array) Hashtbl.t;
  mems : (string, (int, Bitvec.t) Hashtbl.t) Hashtbl.t;
  decoder : decoder;
  pc_reg : Bitvec.t array option;  (** the [is_pc] register, if any *)
  mutable pc_written : bool;
      (** whether the last {!exec_instr} wrote the PC register *)
  staged : staged;
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

(** [decode_field_int f word]: {!decode_field} over the bit pattern of a
    native-int word, for a field of at most {!Bitvec.native_width} bits
    whose segments lie inside it (as every typechecked field does). *)
val decode_field_int : Tast.field_info -> int -> int

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

(** [encode ti fields]: the instruction word of [ti] with each encoding
    field's value (cast to the field's width) placed at its segments over
    the fixed bits. The one encoder of the project: [Riscv.Asm] encodes
    every base mnemonic through it on the RV32IM unit and every [.isax]
    line on its ISAX unit. Raises {!Runtime_error} for a field missing
    from [fields]; names not in the encoding are ignored. *)
val encode : Tast.tinstr -> (string * Bitvec.t) list -> Bitvec.t
