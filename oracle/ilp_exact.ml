(* The literal Figure 7 ILP of {!Sched.Ilp_scheduler}, built as a MILP
   and solved by branch & bound ({!Milp}): the cross-check oracle for the
   production difference-system solve, and the text the fig7 bench
   prints. *)

module Problem = Sched.Problem

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
   variables. *)
let build_ilp p =
  let n = Array.length p.Problem.operations in
  let lp = Milp.create () in
  let hz = horizon p in
  let t = Array.init n (fun i -> Milp.add_int_var lp ~upper:hz ~name:(Printf.sprintf "t%d" i)) in
  let lifetimes =
    Array.map
      (fun (d : Problem.dependence) ->
        Milp.add_int_var lp ~upper:hz ~name:(Printf.sprintf "l_%d_%d" d.dep_src d.dep_dst))
      p.Problem.dependences
  in
  (* (C1) precedence *)
  Array.iter
    (fun (d : Problem.dependence) ->
      let lat = p.Problem.operations.(d.dep_src).lot.latency in
      Milp.add_int_constraint lp [ (1, t.(d.dep_dst)); (-1, t.(d.dep_src)) ] Milp.Ge lat)
    p.Problem.dependences;
  (* (C2) lifetimes *)
  Array.iter2
    (fun (d : Problem.dependence) l ->
      Milp.add_int_constraint lp [ (1, l); (-1, t.(d.dep_dst)); (1, t.(d.dep_src)) ] Milp.Ge 0)
    p.Problem.dependences lifetimes;
  (* (C3) windows *)
  Array.iteri
    (fun i (op : Problem.operation) ->
      if op.lot.earliest > 0 then
        Milp.add_int_constraint lp [ (1, t.(i)) ] Milp.Ge op.lot.earliest;
      match op.lot.latest with
      | Some l -> Milp.add_int_constraint lp [ (1, t.(i)) ] Milp.Le l
      | None -> ())
    p.Problem.operations;
  (* (C5) chain breakers *)
  List.iter
    (fun (d : Problem.dependence) ->
      let lat = p.Problem.operations.(d.dep_src).lot.latency in
      Milp.add_int_constraint lp [ (1, t.(d.dep_dst)); (-1, t.(d.dep_src)) ] Milp.Ge (lat + 1))
    (Problem.chain_breakers p);
  (* (obj) sum of start times + sum of lifetimes *)
  Milp.set_int_objective lp
    (Array.to_list (Array.map (fun v -> (1, v)) t) @ Array.to_list (Array.map (fun l -> (1, l)) lifetimes));
  (lp, t)

(* Solve the Figure 7 ILP via the generic branch-and-bound MILP solver.
   Exact but slow on large graphs; the cross-check oracle for
   [Sched.Ilp_scheduler.schedule]. *)
let schedule_exact (p : Problem.t) : Sched.Ilp_scheduler.outcome =
  Problem.check_input p;
  let lp, t = build_ilp p in
  match Milp.solve lp with
  | `Infeasible | `Unbounded -> Infeasible
  | `Optimal sol ->
      Array.iteri (fun i ti -> p.Problem.start_time.(i) <- Milp.value_int sol ti) t;
      Problem.compute_start_time_in_cycle p;
      Scheduled

(* Textual dump of the generated ILP (Figure 7 instance). *)
let ilp_text p =
  let lp, _ = build_ilp p in
  Milp.to_text lp
