(** The literal Figure 7 ILP of {!Sched.Ilp_scheduler}, as a MILP solved
    by branch & bound: a test oracle, and the text [bench fig7] prints. *)

val horizon : Sched.Problem.t -> int
val build_ilp : Sched.Problem.t -> Milp.problem * int array

val schedule_exact : Sched.Problem.t -> Sched.Ilp_scheduler.outcome
(** The test oracle: the literal Figure 7 ILP through branch & bound;
    the start times are written back into the problem. *)

val ilp_text : Sched.Problem.t -> string
