(* ILP scheduler for the LongnailProblem — the formulation of Figure 7.

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

(* The production path: one cold solve of {!Problem.difference_system}
   with the lattice/min-cut solver in {!Lp.Netopt}. *)
let schedule ?rounds (p : Problem.t) : outcome =
  Problem.check_input p;
  match Lp.Netopt.solve ?rounds (Problem.difference_system p) with
  | `Infeasible | `Unbounded -> Infeasible
  | `Optimal t ->
      Array.blit t 0 p.Problem.start_time 0 (Array.length t);
      Problem.compute_start_time_in_cycle p;
      Scheduled

(* Size of the Figure 7 ILP without materializing it: (variables,
   constraints). Used by the profiling layer, which must not distort the
   timings it reports by building a second copy of the LP. *)
let ilp_size p =
  let n = Array.length p.Problem.operations in
  let n_deps = Array.length p.Problem.dependences in
  let n_windows =
    Array.fold_left
      (fun acc (op : Problem.operation) ->
        acc
        + (if op.lot.earliest > 0 then 1 else 0)
        + match op.lot.latest with Some _ -> 1 | None -> 0)
      0 p.Problem.operations
  in
  let n_breakers = List.length (Problem.chain_breakers p) in
  (n + n_deps, (2 * n_deps) + n_windows + n_breakers)
