(** Reference interpreter for typed CoreDSL behaviors.

   Executes instruction behaviors and always-blocks against an
   architectural-state model. This is the golden model: the RTL generated
   by Longnail is co-simulated against it in the integration tests
   (Section 5.3 of the paper verifies extended cores by RTL simulation). *)

module Bn = Bitvec.Bn
exception Runtime_error of Ast.loc * string
val runtime_error :
  Ast.loc -> ('a, Format.formatter, unit, 'b) format4 -> 'a

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
val space_info : state -> string -> Elaborate.addr_space
val mem_table : state -> string -> (int, Bitvec.t) Hashtbl.t
val read_mem_elem : state -> string -> int -> Bitvec.t
val write_mem_elem : state -> string -> int -> Bitvec.t -> unit
val read_mem : state -> string -> int -> int -> Bitvec.t
val write_mem : state -> string -> int -> int -> Bitvec.t -> unit
type frame = {
  locals : (string, Bitvec.t) Hashtbl.t;
  fields : (string * Bitvec.t) list;
}
exception Return_exc of Bitvec.t option
val eval : state -> frame -> Tast.texpr -> Bitvec.t
val eval_binop :
  state ->
  frame ->
  Ast.loc ->
  Ast.binop ->
  Tast.texpr -> Tast.texpr -> Bitvec.t
val exec_stmt : state -> frame -> Tast.tstmt -> unit
val exec_stmts : state -> frame -> Tast.tstmt list -> unit
val call_function :
  state -> Tast.tfunc -> Bitvec.t list -> Bitvec.t option
val decode_field : Bitvec.t -> Tast.field_info -> Bitvec.t
val matches : Tast.tinstr -> Bitvec.t -> bool

(** Execute one instruction's behavior; clears and then sets
    [pc_written]. *)
val exec_instr :
  state -> Tast.tinstr -> instr_word:Bitvec.t -> unit

val exec_always : state -> Tast.talways -> unit

(** The first instruction of [tunit.tinstrs] whose encoding {!matches}
    the word, found through the decode table: the same answer as a
    linear [List.find_opt], including its first-match priority when
    encodings overlap. *)
val decode : state -> Bitvec.t -> Tast.tinstr option

val encode : Tast.tinstr -> (string * Bitvec.t) list -> Bitvec.t
