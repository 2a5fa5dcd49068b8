(** A small RV32IM assembler, encoded from the CoreDSL description.

   Supports the RV32IM base set, the usual pseudo-instructions, labels,
   [.word], and a directive for custom ISAX instructions:

     .isax NAME field=value field=value ...

   where NAME is an instruction defined in a CoreDSL unit and the fields
   are its encoding fields (register fields take x-register numbers or ABI
   names, immediates take integers). Every base mnemonic is turned into
   field values for the instruction of the same, upper-cased name in the
   RV32IM unit ({!Coredsl.compile_rv32im}) and encoded by
   {!Coredsl.Interp.encode}, the path an [.isax] line takes through its
   own unit: one description gives both the encoding and the behaviour.
   Used to write the "handwritten assembler programs" with which the
   paper verifies the extended cores (Section 5.3) and the Section 5.5
   case study. *)

(** Every malformed program: syntax, operands, unknown mnemonics and
    instructions, missing encoding fields and undefined labels. *)
exception Asm_error of string

(** ISAX encoder: instruction name, field assignments -> word. *)
type custom_encoder = string -> (string * int) list -> int

(** The encoder of a CoreDSL unit's instructions; raises {!Asm_error}
    for a name the unit does not define or a field left unassigned. *)
val encoder : Coredsl.Tast.tunit -> custom_encoder

val assemble : ?base:int -> ?custom:custom_encoder -> string -> int list
