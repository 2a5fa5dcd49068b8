(* Optimal solver for linear objectives over difference-constraint systems.

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

type system = {
  edges : edge array;
  lower : int array;
  upper : int option array;
  cost : int array;
}

exception Unbounded

(* ---- Dinic max-flow ---- *)

module Maxflow = struct
  type arc = { dst : int; mutable cap : int; mutable flow : int; rev : int }

  type t = { n : int; adj : arc array array; mutable adj_build : arc list array }

  let inf = max_int / 4

  let create n = { n; adj = [||]; adj_build = Array.make n [] }

  let add_edge g u v cap =
    let a = { dst = v; cap; flow = 0; rev = List.length g.adj_build.(v) } in
    let b = { dst = u; cap = 0; flow = 0; rev = List.length g.adj_build.(u) } in
    g.adj_build.(u) <- g.adj_build.(u) @ [ a ];
    g.adj_build.(v) <- g.adj_build.(v) @ [ b ]

  let freeze g = { g with adj = Array.map Array.of_list g.adj_build }

  let max_flow g s t =
    let adj = g.adj in
    let n = g.n in
    let level = Array.make n (-1) in
    let it = Array.make n 0 in
    let bfs () =
      Array.fill level 0 n (-1);
      let q = Queue.create () in
      level.(s) <- 0;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun a ->
            if level.(a.dst) < 0 && a.cap - a.flow > 0 then begin
              level.(a.dst) <- level.(u) + 1;
              Queue.add a.dst q
            end)
          adj.(u)
      done;
      level.(t) >= 0
    in
    let rec dfs u pushed =
      if u = t then pushed
      else begin
        let res = ref 0 in
        while !res = 0 && it.(u) < Array.length adj.(u) do
          let a = adj.(u).(it.(u)) in
          if level.(a.dst) = level.(u) + 1 && a.cap - a.flow > 0 then begin
            let d = dfs a.dst (min pushed (a.cap - a.flow)) in
            if d > 0 then begin
              a.flow <- a.flow + d;
              let back = adj.(a.dst).(a.rev) in
              back.flow <- back.flow - d;
              res := d
            end
            else it.(u) <- it.(u) + 1
          end
          else it.(u) <- it.(u) + 1
        done;
        !res
      end
    in
    let total = ref 0 in
    while bfs () do
      Array.fill it 0 n 0;
      let rec push () =
        let f = dfs s inf in
        if f > 0 then begin
          total := !total + f;
          push ()
        end
      in
      push ()
    done;
    (!total, level)
  (* after the last BFS, level >= 0 marks the source side of a min cut *)
end

(* ---- ASAP via Bellman-Ford longest paths ----

   [rounds] accumulates the sweep count. *)

let asap ?rounds (s : system) =
  let n = Array.length s.lower in
  let t = Array.copy s.lower in
  let changed = ref true and sweeps = ref 0 and ok = ref true in
  while !changed && !ok do
    changed := false;
    incr sweeps;
    if !sweeps > n + 1 then ok := false
    else
      Array.iter
        (fun e ->
          if t.(e.e_src) + e.e_w > t.(e.e_dst) then begin
            t.(e.e_dst) <- t.(e.e_src) + e.e_w;
            changed := true
          end)
        s.edges
  done;
  (match rounds with Some r -> r := !r + !sweeps | None -> ());
  if !ok && Array.for_all2 (fun ti up -> match up with Some hi -> ti <= hi | None -> true) t s.upper
  then Some t
  else None

(* ---- steepest-ascent phase ----

   Shift-by-closed-set ascent from the minimal element [t] (mutated in
   place). With no negative cost no set improves, and [t] is returned
   unchanged after one min-cut. *)

let ascend (s : system) t =
  let n = Array.length t and edges = s.edges and upper = s.upper and cost = s.cost in
  let iterations = ref 0 in
  let improved = ref true in
  while !improved do
    incr iterations;
    if !iterations > 100_000 then failwith "Netopt.ascend: did not converge";
    improved := false;
    (* build the closure graph on tight edges:
       i in S and (i->j) tight  ==>  j in S;
       i at its upper bound     ==>  i not in S *)
    let src = n and snk = n + 1 in
    let g = Maxflow.create (n + 2) in
    let neg_total = ref 0 in
    for i = 0 to n - 1 do
      if cost.(i) < 0 then begin
        Maxflow.add_edge g src i (-cost.(i));
        neg_total := !neg_total - cost.(i)
      end
      else if cost.(i) > 0 then Maxflow.add_edge g i snk cost.(i);
      match upper.(i) with
      | Some hi when t.(i) >= hi -> Maxflow.add_edge g i snk Maxflow.inf
      | _ -> ()
    done;
    Array.iter
      (fun e ->
        if t.(e.e_dst) - t.(e.e_src) = e.e_w then Maxflow.add_edge g e.e_src e.e_dst Maxflow.inf)
      edges;
    let g = Maxflow.freeze g in
    let flow, level = Maxflow.max_flow g src snk in
    (* the min closure weight is flow - neg_total; improving iff < 0 *)
    if flow < !neg_total then begin
      (* S = nodes on the source side of the min cut *)
      let in_s i = level.(i) >= 0 in
      (* maximum feasible shift *)
      let delta = ref max_int in
      Array.iter
        (fun e ->
          if in_s e.e_src && not (in_s e.e_dst) then
            delta := min !delta (t.(e.e_dst) - t.(e.e_src) - e.e_w))
        edges;
      for i = 0 to n - 1 do
        if in_s i then
          match upper.(i) with Some hi -> delta := min !delta (hi - t.(i)) | None -> ()
      done;
      if !delta = max_int then raise Unbounded;
      if !delta <= 0 then failwith "Netopt.ascend: zero shift on improving set";
      for i = 0 to n - 1 do
        if in_s i then t.(i) <- t.(i) + !delta
      done;
      improved := true
    end
  done;
  t

let solve ?rounds s =
  match asap ?rounds s with
  | None -> `Infeasible
  | Some least -> ( match ascend s least with t -> `Optimal t | exception Unbounded -> `Unbounded)

(* objective value of a solution *)
let objective ~cost t =
  let v = ref 0 in
  Array.iteri (fun i c -> v := !v + (c * t.(i))) cost;
  !v
