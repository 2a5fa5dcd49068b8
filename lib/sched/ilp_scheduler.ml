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

   The paper solves this with Cbc via OR-Tools. Here the default backend
   solves the equivalent difference system ({!Problem.difference_system})
   exactly; [build_ilp] plus the branch-and-bound solver from lib/lp is
   the cross-check oracle. *)

type outcome = Scheduled | Infeasible

(* horizon: a safe upper bound for all start times, needed to keep the LP
   relaxation bounded *)
let horizon p =
  let lat_sum =
    Array.fold_left (fun acc (op : Problem.operation) -> acc + op.lot.latency + 1) 0
      p.Problem.operations
  in
  let max_earliest =
    Array.fold_left (fun acc (op : Problem.operation) -> max acc op.lot.earliest) 0
      p.Problem.operations
  in
  lat_sum + max_earliest + 1

(* Build the Figure 7 ILP for [p]. Returns the LP problem and the t
   variables (exposed for the fig7 dump in the bench harness). *)
let build_ilp p =
  let n = Array.length p.Problem.operations in
  let lp = Lp.create () in
  let hz = horizon p in
  let t =
    Array.init n (fun i ->
        Lp.add_int_var lp ~upper:hz ~name:(Printf.sprintf "t%d" i))
  in
  let lifetimes =
    List.map
      (fun (d : Problem.dependence) ->
        Lp.add_int_var lp ~upper:hz ~name:(Printf.sprintf "l_%d_%d" d.dep_src d.dep_dst))
      p.Problem.dependences
  in
  (* (C1) precedence *)
  List.iter
    (fun (d : Problem.dependence) ->
      let lat = p.Problem.operations.(d.dep_src).lot.latency in
      Lp.add_int_constraint lp [ (1, t.(d.dep_dst)); (-1, t.(d.dep_src)) ] Lp.Ge lat)
    p.Problem.dependences;
  (* (C2) lifetimes *)
  List.iter2
    (fun (d : Problem.dependence) l ->
      Lp.add_int_constraint lp [ (1, l); (-1, t.(d.dep_dst)); (1, t.(d.dep_src)) ] Lp.Ge 0)
    p.Problem.dependences lifetimes;
  (* (C3) windows *)
  Array.iteri
    (fun i (op : Problem.operation) ->
      if op.lot.earliest > 0 then Lp.add_int_constraint lp [ (1, t.(i)) ] Lp.Ge op.lot.earliest;
      match op.lot.latest with
      | Some l -> Lp.add_int_constraint lp [ (1, t.(i)) ] Lp.Le l
      | None -> ())
    p.Problem.operations;
  (* (C5) chain breakers *)
  List.iter
    (fun (d : Problem.dependence) ->
      let lat = p.Problem.operations.(d.dep_src).lot.latency in
      Lp.add_int_constraint lp [ (1, t.(d.dep_dst)); (-1, t.(d.dep_src)) ] Lp.Ge (lat + 1))
    (Problem.chain_breakers p);
  (* (obj) sum of start times + sum of lifetimes *)
  Lp.set_int_objective lp
    (Array.to_list (Array.map (fun v -> (1, v)) t) @ List.map (fun l -> (1, l)) lifetimes);
  (lp, t)

(* Solve the Figure 7 ILP via the generic branch-and-bound MILP solver.
   Exact but slow on large graphs; used for small instances and as the
   cross-check oracle for the network backend. *)
let schedule_exact (p : Problem.t) : outcome =
  Problem.check_input p;
  let lp, t = build_ilp p in
  match Lp.solve lp with
  | `Infeasible | `Unbounded -> Infeasible
  | `Optimal sol ->
      Array.iteri (fun i ti -> p.Problem.start_time.(i) <- Lp.value_int sol ti) t;
      Problem.compute_start_time_in_cycle p;
      Scheduled

(* Write a solved start-time vector back into [p]. *)
let store (p : Problem.t) = function
  | `Infeasible | `Unbounded -> Infeasible
  | `Optimal t ->
      Array.blit t 0 p.Problem.start_time 0 (Array.length t);
      Problem.compute_start_time_in_cycle p;
      Scheduled

type backend = Exact | Netflow

(* The default backend solves {!Problem.difference_system} on a fresh
   {!Lp.Instance}: the lattice/min-cut solver in {!Lp.Netopt}. *)
let schedule ?(backend = Netflow) (p : Problem.t) : outcome =
  match backend with
  | Exact -> schedule_exact p
  | Netflow ->
      Problem.check_input p;
      store p (Lp.Instance.resolve (Lp.Instance.create (Problem.difference_system p)))

(* ---- persistent incremental scheduler ----------------------------------

   One {!Lp.Instance} per dependence-graph structure, kept alive across the
   re-schedules of a DSE sweep. Between grid points only the numbers of
   {!Problem.difference_system} move — a chain-breaker flip is one edge
   weight, a window change one variable's bounds — and [resolve]
   warm-starts from the previous grid point. The instance computes the
   same schedule a fresh one would, so this path is schedule-for-schedule
   identical to [schedule ~backend:Netflow]. *)

module Incremental = struct
  type t = {
    n : int;
    deps : (int * int) list;  (* (src, dst) per dependence, in order *)
    inst : Lp.Instance.t;
    lock : Mutex.t;
  }

  let shape_of (p : Problem.t) =
    ( Array.length p.Problem.operations,
      List.map (fun (d : Problem.dependence) -> (d.dep_src, d.dep_dst)) p.Problem.dependences
    )

  let create (p : Problem.t) : t =
    Problem.check_input p;
    let n, deps = shape_of p in
    let inst = Lp.Instance.create (Problem.difference_system p) in
    { n; deps; inst; lock = Mutex.create () }

  (* Same dependence-graph structure? (Latencies, windows and the breaker
     set are data and may differ; operation count and edge list may not.) *)
  let compatible inc (p : Problem.t) = shape_of p = (inc.n, inc.deps)

  let schedule inc (p : Problem.t) : outcome =
    Problem.check_input p;
    if not (compatible inc p) then
      Problem.problem_error "Ilp_scheduler.Incremental: dependence graph changed shape";
    let s = Problem.difference_system p in
    Mutex.protect inc.lock (fun () ->
        Array.iteri
          (fun e (ed : Lp.Netopt.edge) -> Lp.Instance.update_weight inc.inst e ed.e_w)
          s.edges;
        Array.iteri
          (fun v lower -> Lp.Instance.update_bounds inc.inst v ~lower ~upper:s.upper.(v))
          s.lower;
        store p (Lp.Instance.resolve inc.inst))

  let stats inc = Lp.Instance.stats inc.inst
  let classify inc = Lp.Instance.classify inc.inst
end

(* Textual dump of the generated ILP (Figure 7 instance). *)
let ilp_text p =
  let lp, _ = build_ilp p in
  Lp.to_text lp

(* Size of the Figure 7 ILP without materializing it: (variables,
   constraints). Used by the profiling layer, which must not distort the
   timings it reports by building a second copy of the LP. *)
let ilp_size p =
  let n = Array.length p.Problem.operations in
  let n_deps = List.length p.Problem.dependences in
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
