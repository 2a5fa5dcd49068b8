(** ILP scheduler for the LongnailProblem — the formulation of Figure 7.

   Decision variables: a start time t_i per operation and a lifetime l_ij
   per dependence. The multi-criteria objective minimizes the sum of start
   times (latency) plus the sum of lifetimes (pipeline registers in the
   ISAX module). Constraints:
   (C1) t_i + latency_i <= t_j            for every dependence i->j
   (C2) l_ij >= t_j - t_i
   (C3) earliest_i <= t_i <= latest_i
   (C4) integrality / non-negativity
   (C5) t_i + latency_i + 1 <= t_j        for every chain-breaking edge

   The paper solves this with Cbc via OR-Tools. Here [schedule] solves
   the equivalent difference system ({!Problem.difference_system})
   exactly; the literal ILP through branch & bound is the cross-check
   oracle in [Oracle.Ilp_exact], outside lib/. *)

type outcome = Scheduled | Infeasible

val schedule : ?rounds:int ref -> Problem.t -> outcome
(** One cold {!Lp.Netopt.solve} of {!Problem.difference_system}; the
    start times are written back into the problem. [rounds] accumulates
    Bellman-Ford relaxation sweeps. *)

val ilp_size : Problem.t -> int * int
(** [(variables, constraints)] of the Figure 7 ILP for this instance,
    computed without building it (profiling must stay cheap). *)
