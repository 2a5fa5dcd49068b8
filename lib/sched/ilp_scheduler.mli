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

   The paper solves this with Cbc via OR-Tools. Here the default backend
   solves the equivalent difference system ({!Problem.difference_system})
   exactly; [build_ilp] plus the branch-and-bound solver from lib/lp is
   the cross-check oracle. *)

type outcome = Scheduled | Infeasible
val horizon : Problem.t -> int
val build_ilp : Problem.t -> Lp.problem * int array
val schedule_exact : Problem.t -> outcome
type backend = Exact | Netflow

val schedule : ?backend:backend -> Problem.t -> outcome
(** [Netflow] (the default) solves {!Problem.difference_system} on a
    fresh {!Lp.Instance}; [Exact] runs {!schedule_exact}. *)

val ilp_text : Problem.t -> string

val ilp_size : Problem.t -> int * int
(** [(variables, constraints)] of the Figure 7 ILP for this instance,
    computed without building it (profiling must stay cheap). *)

(** Persistent incremental scheduler: one {!Lp.Instance} of
    {!Problem.difference_system} kept alive across the re-schedules of a
    DSE sweep. Between grid points only edge weights (chain-breaker flips)
    and bounds (window changes) move, and {!Lp.Instance.resolve}
    warm-starts from the previous solution. Produces schedules identical
    to [schedule ~backend:Netflow], warm or cold. Thread-safe: re-schedules
    on the same instance are serialized by an internal mutex. *)
module Incremental : sig
  type t

  val create : Problem.t -> t
  (** Snapshot the dependence-graph structure of [p] into a persistent
      solver instance. *)

  val compatible : t -> Problem.t -> bool
  (** Whether [p] has the operation count and dependence list this
      instance was created from (latencies, windows and the breaker set
      are data and may differ freely). *)

  val schedule : t -> Problem.t -> outcome
  (** Push the current latencies, windows and chain-breaker set of [p]
      into the instance, re-solve (warm when possible), and write the
      start times back into [p]. Raises {!Problem.Problem_error} when
      [compatible] is false. *)

  val stats : t -> Lp.Instance.stats
  val classify : t -> Lp.Instance.klass
end
