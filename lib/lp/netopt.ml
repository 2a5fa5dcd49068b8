(* Optimal solver for linear objectives over difference-constraint
   systems: Bellman-Ford for the least element, then min-cut steepest
   ascent. The algorithm and its exactness argument are in netopt.mli. *)

type edge = { e_src : int; e_dst : int; e_w : int }

type system = {
  edges : edge array;
  lower : int array;
  upper : int option array;
  cost : int array;
}

exception Unbounded

exception Budget_exhausted of int

let max_steps = 100_000

(* ---- Dinic max-flow over a flat residual graph ----

   Arc [2k] is the k-th added arc and [2k+1] its reverse, so the tail of
   arc [a] is [dst.(a lxor 1)]. [res] holds residual capacities; [first]
   and [adj] list each node's arcs in the order they were added (CSR),
   built once per [max_flow]. Every array is allocated once, for the
   largest graph, and reused by each ascent step. *)

module Maxflow = struct
  type t = {
    n : int;
    mutable m : int;  (* arcs added, reverses included *)
    dst : int array;
    res : int array;
    first : int array;
    adj : int array;
    level : int array;
    it : int array;
    queue : int array;
  }

  let inf = max_int / 4

  let create n ~max_arcs =
    let arcs () = Array.make (2 * max_arcs) 0 and nodes () = Array.make n 0 in
    { n; m = 0; dst = arcs (); res = arcs (); first = Array.make (n + 1) 0; adj = arcs ();
      level = nodes (); it = nodes (); queue = nodes () }

  let add_edge g u v cap =
    let a = g.m in
    g.dst.(a) <- v;
    g.res.(a) <- cap;
    g.dst.(a + 1) <- u;
    g.res.(a + 1) <- 0;
    g.m <- a + 2

  (* counting sort of the arcs by tail, stable in arc order *)
  let build_adjacency g =
    let first = g.first and it = g.it in
    Array.fill first 0 (g.n + 1) 0;
    for a = 0 to g.m - 1 do
      let u = g.dst.(a lxor 1) in
      first.(u + 1) <- first.(u + 1) + 1
    done;
    for u = 0 to g.n - 1 do
      first.(u + 1) <- first.(u + 1) + first.(u)
    done;
    Array.blit first 0 it 0 g.n;
    for a = 0 to g.m - 1 do
      let u = g.dst.(a lxor 1) in
      g.adj.(it.(u)) <- a;
      it.(u) <- it.(u) + 1
    done

  let bfs g s t =
    let level = g.level and queue = g.queue in
    Array.fill level 0 g.n (-1);
    level.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for k = g.first.(u) to g.first.(u + 1) - 1 do
        let a = g.adj.(k) in
        let v = g.dst.(a) in
        if level.(v) < 0 && g.res.(a) > 0 then begin
          level.(v) <- level.(u) + 1;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    level.(t) >= 0

  (* push along one level-increasing path from [u]; [it.(u)] skips arcs
     that are saturated or lead nowhere *)
  let rec dfs g t u pushed =
    if u = t then pushed
    else if g.it.(u) = g.first.(u + 1) then 0
    else begin
      let a = g.adj.(g.it.(u)) in
      let v = g.dst.(a) in
      let d =
        if g.level.(v) = g.level.(u) + 1 && g.res.(a) > 0 then dfs g t v (Int.min pushed g.res.(a))
        else 0
      in
      if d > 0 then begin
        g.res.(a) <- g.res.(a) - d;
        g.res.(a lxor 1) <- g.res.(a lxor 1) + d;
        d
      end
      else begin
        g.it.(u) <- g.it.(u) + 1;
        dfs g t u pushed
      end
    end

  (* Returns the flow value; afterwards [level.(i) >= 0] marks the nodes
     reachable from [s] in the residual graph, the source side of the
     minimal minimum cut. *)
  let max_flow g s t =
    build_adjacency g;
    let rec augment total = match dfs g t s inf with 0 -> total | f -> augment (total + f) in
    let rec phases total =
      if bfs g s t then begin
        Array.blit g.first 0 g.it 0 g.n;
        phases (augment total)
      end
      else total
    in
    phases 0
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
   unchanged after one min-cut.

   The shift [delta] of an accepted set S is at least 1. S is closed under
   tight edges (each carries an infinite arc, and the cut is finite), so
   every edge leaving S has slack, which is integral and so at least 1;
   and no node of S sits at its upper bound, whose infinite arc to the
   sink would be cut. *)

let ascend (s : system) t =
  let n = Array.length t and edges = s.edges and upper = s.upper and cost = s.cost in
  let src = n and snk = n + 1 in
  let g = Maxflow.create (n + 2) ~max_arcs:((2 * n) + Array.length edges) in
  let steps = ref 0 in
  let improved = ref true in
  while !improved do
    incr steps;
    if !steps > max_steps then raise (Budget_exhausted max_steps);
    improved := false;
    (* build the closure graph on tight edges:
       i in S and (i->j) tight  ==>  j in S;
       i at its upper bound     ==>  i not in S
       over the arrays of the previous step *)
    g.m <- 0;
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
    let flow = Maxflow.max_flow g src snk in
    (* the min closure weight is flow - neg_total; improving iff < 0 *)
    if flow < !neg_total then begin
      (* S = nodes on the source side of the min cut *)
      let level = g.level in
      let delta = ref max_int in
      Array.iter
        (fun e ->
          if level.(e.e_src) >= 0 && level.(e.e_dst) < 0 then
            delta := min !delta (t.(e.e_dst) - t.(e.e_src) - e.e_w))
        edges;
      for i = 0 to n - 1 do
        if level.(i) >= 0 then
          match upper.(i) with Some hi -> delta := min !delta (hi - t.(i)) | None -> ()
      done;
      if !delta = max_int then raise Unbounded;
      for i = 0 to n - 1 do
        if level.(i) >= 0 then t.(i) <- t.(i) + !delta
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
