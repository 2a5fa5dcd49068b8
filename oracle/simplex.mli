(** Exact two-phase primal simplex over rationals.

   Dense tableau implementation with Bland's anti-cycling rule, which
   together with exact {!Rat} arithmetic guarantees termination. Problems
   produced by the Longnail scheduler have tens of variables, so the O(m*n)
   pricing per iteration is irrelevant.

   The solver works on the standard form: minimize c.x subject to the given
   rows, with all structural variables constrained to x >= 0. General bounds
   and integrality live one layer up, in {!Milp}. *)

type rel = Le | Ge | Eq

type outcome =
  | Optimal of Rat.t array * Rat.t  (** structural variable values, objective *)
  | Infeasible
  | Unbounded

exception Iteration_limit of int
(** Raised (carrying the budget) when a single solve exceeds its pivot
    budget. Bland's rule rules out cycling, so this only fires on
    pathologically large instances. *)

val default_budget : int

val solve_ext :
  ?budget:int -> obj:Rat.t array -> rows:(Rat.t array * rel * Rat.t) list -> unit -> outcome
(** One simplex solve. [budget] bounds its pivots (default
    {!default_budget}); exceeding it raises {!Iteration_limit}. *)

val solve :
  obj:Rat.t array -> rows:(Rat.t array * rel * Rat.t) list -> outcome
(** [solve_ext] with the default budget. *)
