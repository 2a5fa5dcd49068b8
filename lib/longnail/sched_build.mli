(** Construction of the LongnailProblem (Section 4.2) from a lil graph and a
   SCAIE-V virtual datasheet.

   - every lil/comb operation becomes a scheduling operation;
   - SSA def-use edges become dependences;
   - SCAIE-V sub-interface operations get operator types whose
     earliest/latest windows come from the datasheet; WrRD/RdMem/WrMem get
     latest = infinity so that the tightly-coupled/decoupled variants are
     reachable (Section 4.2);
   - for always-blocks, every interface constraint is stage 0 and solving
     merely checks single-cycle feasibility (Section 4.4). *)

exception Build_error of Diag.t
val build_error :
  ?code:string -> ?span:Diag.span -> ('a, Format.formatter, unit, 'b) format4 -> 'a
type built = {
  problem : Sched.Problem.t;
  index_of_op : int array;  (** mir op id -> problem operation index, or -1 *)
  ops_by_index : Ir.Mir.op array;
}
val result_width : Ir.Mir.op -> int
val operator_type_for :
  Scaiev.Datasheet.t ->
  Delay_model.t ->
  always:bool -> Ir.Mir.op -> Sched.Problem.operator_type
val build :
  Scaiev.Datasheet.t ->
  ?delay_model:Delay_model.t ->
  ?cycle_time:float -> Ir.Mir.graph -> built
type scheduler = Ilp | Asap

val schedule : ?scheduler:scheduler -> ?rounds:int ref -> built -> bool
(** Solve the problem in place; [false] when it is infeasible. [rounds]
    accumulates the ILP solve's Bellman-Ford relaxation sweeps. *)

(** For an infeasible problem: the operation whose ASAP lower bound
    (longest dependence path, ignoring [latest] windows) most overshoots
    its own [latest] window, with that bound and the window. The mir op
    carries the originating CoreDSL span. *)
val infeasible_culprit : built -> (Ir.Mir.op * int * int) option

val start_time : built -> Ir.Mir.op -> int
