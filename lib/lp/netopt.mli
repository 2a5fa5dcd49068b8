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
   computation (Dinic over a residual graph kept in flat int arrays, one
   set of arrays reused by every ascent step). Each accepted move
   strictly decreases the objective, guaranteeing termination.

   The shifted set is the source side of the minimal minimum cut: the
   nodes reachable from the source in the final residual graph. Every
   maximum flow leaves the same reachable set, so neither the order of
   [edges] nor the order in which Dinic visits arcs changes a step, and
   equal systems up to edge order give equal value vectors.

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

val asap : ?rounds:int ref -> system -> int array option
(** The componentwise-minimal feasible point (Bellman-Ford longest
    paths); [cost] is ignored. [None] when the system is infeasible
    (positive cycle, or the least point breaks an upper bound, in which
    case every point does). [rounds] accumulates relaxation sweeps. *)

exception Budget_exhausted of int
(** Raised by {!solve} when the ascent has not converged after this many
    steps (100k). Each step lowers the integral objective by at least 1,
    so only a system with a huge objective range can reach it. *)

val solve :
  ?rounds:int ref -> system -> [ `Optimal of int array | `Infeasible | `Unbounded ]
(** {!asap}, then min-cut steepest ascent from the least element.
    Deterministic: systems equal up to the order of [edges] give equal
    value vectors. With no negative cost the least element is already
    optimal and is returned as is. [rounds] accumulates {!asap}'s
    relaxation sweeps. Raises {!Budget_exhausted}. *)

val objective : cost:int array -> int array -> int
