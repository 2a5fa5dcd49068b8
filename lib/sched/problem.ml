(* The extensible scheduling-problem model (Table 2 of the paper),
   re-implementing the slice of CIRCT's static scheduling infrastructure
   that Longnail builds on.

   The hierarchy is:
   - [Problem]: operations linked to operator types with a latency;
     solution must respect operand availability.
   - [ChainingProblem]: adds physical propagation delays
     (incoming/outgoing) and start times within a cycle.
   - [LongnailProblem]: adds per-operator-type [earliest]/[latest] bounds,
     which encode the SCAIE-V virtual-datasheet constraints. *)

type operator_type = {
  ot_name : string;
  latency : int;
  incoming_delay : float;
  outgoing_delay : float;
  earliest : int;  (* LongnailProblem: first permitted start time *)
  latest : int option;  (* None = unbounded *)
}

let operator_type ?(latency = 0) ?(incoming_delay = 0.0) ?(outgoing_delay = 0.0) ?(earliest = 0)
    ?latest ot_name =
  { ot_name; latency; incoming_delay; outgoing_delay; earliest; latest }

type operation = {
  op_index : int;
  lot : operator_type;  (* linked operator type *)
  op_label : string;  (* for diagnostics and Figure 6-style dumps *)
}

type dependence = { dep_src : int; dep_dst : int }

(* the dependence graph's traversal order, in-edges and chain breakers,
   computed once per problem *)
type shape = {
  order : int array;  (* topological *)
  preds : int list array;  (* dependence indices into each op, last added first *)
  breakers : int list;  (* dependence indices, see [chain_breakers] *)
}

type t = {
  operations : operation array;
  dependences : dependence array;
  cycle_time : float option;  (* chaining: target clock period in ns *)
  mutable start_time : int array;  (* solution *)
  mutable start_time_in_cycle : float array;  (* chaining solution *)
  shape : shape Lazy.t;  (* raises [Problem_error] on a cycle *)
}

exception Problem_error of string

let problem_error fmt = Format.kasprintf (fun m -> raise (Problem_error m)) fmt

(* ---- construction ---- *)

type builder = {
  mutable n_ops : int;
  mutable ops_rev : operation list;
  mutable deps : dependence list;
}

let builder () = { n_ops = 0; ops_rev = []; deps = [] }

let add_operation b ~label lot =
  let idx = b.n_ops in
  b.n_ops <- idx + 1;
  b.ops_rev <- { op_index = idx; lot; op_label = label } :: b.ops_rev;
  idx

let add_dependence b ~src ~dst = b.deps <- { dep_src = src; dep_dst = dst } :: b.deps

(* Walking in topological order, accumulate combinational delay along
   zero-latency chains; an edge whose head would push the accumulated
   delay past the cycle time becomes a chain breaker (its endpoints must
   be separated by at least one time step), and the accumulation restarts
   at the head. Mirrors CIRCT's ChainingSupport. Returns dependence
   indices. *)
let find_breakers operations dependences ~order ~preds = function
  | None -> []
  | Some ct ->
      let acc = Array.make (Array.length operations) 0.0 in
      let breakers = ref [] in
      Array.iter
        (fun j ->
          let opj = operations.(j) in
          let my_delay = opj.lot.incoming_delay +. opj.lot.outgoing_delay in
          let arrive = ref 0.0 in
          List.iter
            (fun k ->
              let i = dependences.(k).dep_src in
              let chained = operations.(i).lot.latency = 0 in
              let candidate = if chained then acc.(i) else operations.(i).lot.outgoing_delay in
              if chained && candidate +. my_delay > ct then breakers := k :: !breakers
              else if candidate > !arrive then arrive := candidate)
            preds.(j);
          acc.(j) <- !arrive +. my_delay)
        order;
      List.rev !breakers

(* Kahn's algorithm; raises on cycles *)
let compute_shape operations dependences cycle_time =
  let n = Array.length operations in
  let indeg = Array.make n 0 and out = Array.make n [] and preds = Array.make n [] in
  Array.iteri
    (fun k d ->
      indeg.(d.dep_dst) <- indeg.(d.dep_dst) + 1;
      out.(d.dep_src) <- d.dep_dst :: out.(d.dep_src);
      preds.(d.dep_dst) <- k :: preds.(d.dep_dst))
    dependences;
  let q = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
  let order = Array.make n 0 and seen = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    order.(!seen) <- i;
    incr seen;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j q)
      out.(i)
  done;
  if !seen <> n then problem_error "dependence graph is cyclic";
  { order; preds; breakers = find_breakers operations dependences ~order ~preds cycle_time }

let finish ?cycle_time b =
  let operations = Array.of_list (List.rev b.ops_rev) in
  let dependences = Array.of_list (List.rev b.deps) in
  {
    operations;
    dependences;
    cycle_time;
    start_time = Array.make (Array.length operations) (-1);
    start_time_in_cycle = Array.make (Array.length operations) 0.0;
    shape = lazy (compute_shape operations dependences cycle_time);
  }

(* ---- input constraints (validity of the instance) ---- *)

let check_input p =
  Array.iter
    (fun op ->
      if op.lot.latency < 0 then problem_error "negative latency on %s" op.op_label;
      if op.lot.incoming_delay < 0.0 || op.lot.outgoing_delay < 0.0 then
        problem_error "negative delay on %s" op.op_label;
      if op.lot.earliest < 0 then problem_error "negative earliest on %s" op.op_label;
      (match op.lot.latest with
      | Some l when l < op.lot.earliest ->
          problem_error "empty window [%d, %d] on %s" op.lot.earliest l op.op_label
      | _ -> ());
      match p.cycle_time with
      | Some ct when op.lot.incoming_delay > ct || op.lot.outgoing_delay > ct ->
          problem_error "operator %s delay exceeds cycle time" op.lot.ot_name
      | _ -> ())
    p.operations;
  Array.iter
    (fun d ->
      if d.dep_src < 0 || d.dep_src >= Array.length p.operations
         || d.dep_dst < 0 || d.dep_dst >= Array.length p.operations
      then problem_error "dependence endpoint out of range")
    p.dependences;
  (* acyclicity via topological sort *)
  ignore (Lazy.force p.shape)

(* ---- solution constraints (Table 2) ---- *)

(* Problem level: i.ST + i.latency <= j.ST for every dependence. *)
let verify_precedence p =
  Array.iter
    (fun d ->
      let i = p.operations.(d.dep_src) and j = p.operations.(d.dep_dst) in
      let ti = p.start_time.(d.dep_src) and tj = p.start_time.(d.dep_dst) in
      if ti < 0 || tj < 0 then problem_error "unscheduled operation";
      if ti + i.lot.latency > tj then
        problem_error "precedence violated: %s(t=%d,lat=%d) -> %s(t=%d)" i.op_label ti
          i.lot.latency j.op_label tj)
    p.dependences

(* ChainingProblem level: start times within a cycle respect propagation
   delays along zero-latency chains and at cycle boundaries. *)
let verify_chaining p =
  Array.iter
    (fun d ->
      let i = p.operations.(d.dep_src) and j = p.operations.(d.dep_dst) in
      let ti = p.start_time.(d.dep_src) and tj = p.start_time.(d.dep_dst) in
      let si = p.start_time_in_cycle.(d.dep_src) and sj = p.start_time_in_cycle.(d.dep_dst) in
      if i.lot.latency = 0 && ti = tj && si +. i.lot.outgoing_delay > sj +. 1e-9 then
        problem_error "chaining violated on %s -> %s" i.op_label j.op_label;
      if i.lot.latency > 0 && ti + i.lot.latency = tj && i.lot.outgoing_delay > sj +. 1e-9 then
        problem_error "chaining violated at cycle boundary %s -> %s" i.op_label j.op_label)
    p.dependences;
  match p.cycle_time with
  | None -> ()
  | Some ct ->
      Array.iteri
        (fun idx op ->
          if p.start_time_in_cycle.(idx) +. op.lot.outgoing_delay > ct +. 1e-9 then
            problem_error "operation %s exceeds cycle time" op.op_label)
        p.operations

(* LongnailProblem level: earliest <= ST <= latest. *)
let verify_windows p =
  Array.iteri
    (fun idx op ->
      let t = p.start_time.(idx) in
      if t < op.lot.earliest then
        problem_error "%s scheduled at %d before earliest %d" op.op_label t op.lot.earliest;
      match op.lot.latest with
      | Some l when t > l -> problem_error "%s scheduled at %d after latest %d" op.op_label t l
      | _ -> ())
    p.operations

let verify p =
  verify_precedence p;
  verify_chaining p;
  verify_windows p

(* latest finish time over all operations *)
let makespan p =
  Array.fold_left max 0
    (Array.mapi (fun i op -> p.start_time.(i) + op.lot.latency) p.operations)

(* sum of value lifetimes: for each dependence, t_dst - t_src (the paper's
   register-pressure proxy in the ILP objective) *)
let total_lifetime p =
  Array.fold_left
    (fun acc d -> acc + (p.start_time.(d.dep_dst) - p.start_time.(d.dep_src)))
    0 p.dependences

(* ---- chaining support ---- *)

let chain_breakers p = List.map (fun k -> p.dependences.(k)) (Lazy.force p.shape).breakers

(* Fill start_time_in_cycle from start_time: ASAP within each cycle along
   zero-latency chains (the utility function mentioned in Section 4.3). *)
let compute_start_time_in_cycle p =
  let { order; preds; _ } = Lazy.force p.shape in
  Array.iter
    (fun j ->
      let tj = p.start_time.(j) in
      let s = ref 0.0 in
      List.iter
        (fun k ->
          let i = p.dependences.(k).dep_src in
          let opi = p.operations.(i) in
          if opi.lot.latency = 0 && p.start_time.(i) = tj then
            s := max !s (p.start_time_in_cycle.(i) +. opi.lot.outgoing_delay)
          else if opi.lot.latency > 0 && p.start_time.(i) + opi.lot.latency = tj then
            s := max !s opi.lot.outgoing_delay)
        preds.(j);
      p.start_time_in_cycle.(j) <- !s)
    order

(* ---- lowering to a difference system ---- *)

(* The Figure 7 ILP with the lifetime variables eliminated (l_ij = t_j - t_i
   at any optimum): one edge per dependence, weighted [latency] (C1), or
   [latency + 1] when the edge breaks a combinational chain (C5, which
   dominates C1); the [earliest]/[latest] windows as bounds (C3); and
   node costs 1 + indegree - outdegree, so that sum cost_i t_i equals
   sum t_i + sum l_ij. Every scheduler path solves this one system. *)
let difference_system p : Lp.Netopt.system =
  let breaks = Array.make (Array.length p.dependences) false in
  List.iter (fun k -> breaks.(k) <- true) (Lazy.force p.shape).breakers;
  let edge k d =
    let lat = p.operations.(d.dep_src).lot.latency in
    { Lp.Netopt.e_src = d.dep_src; e_dst = d.dep_dst; e_w = (if breaks.(k) then lat + 1 else lat) }
  in
  let cost = Array.make (Array.length p.operations) 1 in
  Array.iter
    (fun d ->
      cost.(d.dep_dst) <- cost.(d.dep_dst) + 1;
      cost.(d.dep_src) <- cost.(d.dep_src) - 1)
    p.dependences;
  {
    edges = Array.mapi edge p.dependences;
    lower = Array.map (fun op -> op.lot.earliest) p.operations;
    upper = Array.map (fun op -> op.lot.latest) p.operations;
    cost;
  }

(* ---- pretty-printing (Figure 6-style dump) ---- *)

let pp fmt p =
  Format.fprintf fmt "scheduling problem: %d operations, %d dependences%s\n"
    (Array.length p.operations) (Array.length p.dependences)
    (match p.cycle_time with
    | Some ct -> Printf.sprintf ", cycle time %.2f ns" ct
    | None -> "");
  Array.iteri
    (fun i op ->
      Format.fprintf fmt "  [%2d] %-24s lot=%-14s lat=%d window=[%d,%s]" i op.op_label
        op.lot.ot_name op.lot.latency op.lot.earliest
        (match op.lot.latest with Some l -> string_of_int l | None -> "inf");
      if p.start_time.(i) >= 0 then
        Format.fprintf fmt "  t=%d (%.2f ns)" p.start_time.(i) p.start_time_in_cycle.(i);
      Format.fprintf fmt "\n")
    p.operations

let to_string p = Format.asprintf "%a" pp p
