(** Type checker for CoreDSL behaviors.

   Implements the bitwidth-aware type system of Section 2.3: all operators
   produce results wide enough to avoid over-/underflow, and assignments
   that would lose precision or sign information are rejected unless an
   explicit cast is present. Produces the typed AST of {!Tast}, in which
   a local that shadows a visible local carries a fresh name no CoreDSL
   identifier can spell, so each TAST local names one variable. *)

exception Type_error of Diag.t

val check_all : Elaborate.elaborated -> (Tast.tunit, Diag.t list) result
(** Type-check a whole elaborated unit, accumulating one diagnostic per
    failing function/instruction/always-block. *)
