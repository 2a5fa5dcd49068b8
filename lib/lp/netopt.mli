(** Optimal solver for linear objectives over difference-constraint systems.

   Solves:   minimize    sum_i cost_i * t_i
             subject to  t_dst - t_src >= w        (difference constraints)
                         lower_i <= t_i <= upper_i
                         t integral

   This is the shape the Longnail scheduling ILP (Figure 7 of the paper)
   takes after the lifetime variables are eliminated analytically:
   at any optimum l_ij = t_j - t_i, so the objective
   "sum t_i + sum l_ij" collapses to a weighted sum of start times with
   integer node costs (1 + indegree - outdegree).

   Algorithm: the feasible set is a lattice polyhedron whose least element
   is the ASAP solution (computed by Bellman-Ford longest paths). A linear
   function restricted to such a lattice is L-natural-convex, so steepest
   ascent over "shift a closed set S by +delta" moves reaches the global
   optimum; the best improving set is a minimum-weight closed set under
   the tight-edge closure relation, found with a max-flow min-cut
   computation (Dinic). Each accepted move strictly decreases the
   objective, guaranteeing termination.

   Exactness is cross-checked against the branch-and-bound MILP solver in
   the test suite. *)

type edge = { e_src : int; e_dst : int; e_w : int }
(** [t_dst - t_src >= e_w]. *)

(** One scheduling problem as a difference system: minimize
    [sum cost_i * t_i] subject to [edges] and [lower_i <= t_i <= upper_i].
    [Sched.Problem.difference_system] produces these. *)
type system = {
  edges : edge array;
  lower : int array;
  upper : int option array;
  cost : int array;
}

exception Unbounded

val asap : ?init:int array -> ?rounds:int ref -> system -> int array option
(** The componentwise-minimal feasible point (Bellman-Ford longest
    paths); [cost] is ignored. [None] when the system is infeasible
    (positive cycle, or the least point breaks an upper bound, in which
    case every point does). With [init] the relaxation warm-starts from
    [max init lower]; the result is identical to a cold run whenever that
    start is below the minimal solution — in particular when [init] is
    the ASAP result of a system this one only tightens. [rounds]
    accumulates relaxation sweeps. *)

val ascend : system -> int array -> int array
(** The steepest-ascent phase, from a minimal element produced by
    {!asap} (mutated in place and returned). Deterministic: equal inputs
    give equal outputs, so a warm-started {!asap} feeding this yields
    byte-identical schedules to a cold solve. With no negative cost the
    minimal element is already optimal and is returned unchanged. Raises
    {!Unbounded}. *)

val objective : cost:int array -> int array -> int
