(* ASAP scheduler based on difference constraints (Bellman-Ford longest
   path). Computes the componentwise-minimal feasible start times, which
   minimizes the sum of start times but — unlike the ILP of Figure 7 —
   ignores value lifetimes. Serves as the fast scheduling path and as the
   baseline for the scheduler ablation bench. *)

type outcome = Scheduled | Infeasible

let schedule (p : Problem.t) : outcome =
  Problem.check_input p;
  match Lp.Netopt.asap (Problem.difference_system p) with
  | None -> Infeasible
  | Some sol ->
      Array.blit sol 0 p.Problem.start_time 0 (Array.length sol);
      Problem.compute_start_time_in_cycle p;
      Scheduled
