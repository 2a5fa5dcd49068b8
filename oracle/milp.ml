(* Mixed-integer linear programming by branch & bound over the exact
   {!Simplex} solver: the test oracle for [Lp.Netopt], standing in for the
   paper's Cbc/OR-Tools backend. It offers a small problem-builder API:
   create variables (with lower/upper bounds and an integrality flag), add
   linear constraints, set a minimization objective, and solve. All
   solutions are exact rationals; integer variables are branched on until
   integral. *)

type rel = Le | Ge | Eq

type var = int

type constr = { coeffs : (Rat.t * var) list; rel : rel; rhs : Rat.t }

type problem = {
  mutable nvars : int;
  mutable names : string list;  (* reversed *)
  mutable lower : Rat.t list;  (* reversed, per var *)
  mutable upper : Rat.t option list;  (* reversed, per var *)
  mutable integer : bool list;  (* reversed, per var *)
  mutable constraints : constr list;  (* reversed *)
  mutable objective : (Rat.t * var) list;
}

type solution = { values : Rat.t array; objective : Rat.t }

type outcome = [ `Optimal of solution | `Infeasible | `Unbounded ]

let create () =
  {
    nvars = 0;
    names = [];
    lower = [];
    upper = [];
    integer = [];
    constraints = [];
    objective = [];
  }

let add_var ?(lower = Rat.zero) ?upper ?(integer = false) p ~name =
  let v = p.nvars in
  p.nvars <- v + 1;
  p.names <- name :: p.names;
  p.lower <- lower :: p.lower;
  p.upper <- upper :: p.upper;
  p.integer <- integer :: p.integer;
  v

let add_int_var ?(lower = 0) ?upper p ~name =
  add_var p ~name ~integer:true ~lower:(Rat.of_int lower)
    ?upper:(Option.map Rat.of_int upper)

let add_constraint p coeffs rel rhs = p.constraints <- { coeffs; rel; rhs } :: p.constraints

let add_int_constraint p coeffs rel rhs =
  add_constraint p
    (List.map (fun (c, v) -> (Rat.of_int c, v)) coeffs)
    rel (Rat.of_int rhs)

let set_int_objective (p : problem) coeffs = p.objective <- List.map (fun (c, v) -> (Rat.of_int c, v)) coeffs

(* Render the problem in an LP-like text format (used by the fig7 bench to
   show the generated ILP). *)
let to_text (p : problem) =
  let buf = Buffer.create 256 in
  let names = Array.of_list (List.rev p.names) in
  let pp_term first (c, v) =
    let s = Rat.to_string c in
    if first then Printf.sprintf "%s %s" s names.(v)
    else if Rat.sign c >= 0 then Printf.sprintf " + %s %s" s names.(v)
    else Printf.sprintf " - %s %s" (Rat.to_string (Rat.neg c)) names.(v)
  in
  Buffer.add_string buf "minimize\n  ";
  List.iteri (fun i t -> Buffer.add_string buf (pp_term (i = 0) t)) p.objective;
  Buffer.add_string buf "\nsubject to\n";
  List.iter
    (fun { coeffs; rel; rhs } ->
      Buffer.add_string buf "  ";
      List.iteri (fun i t -> Buffer.add_string buf (pp_term (i = 0) t)) coeffs;
      Buffer.add_string buf
        (Printf.sprintf " %s %s\n"
           (match rel with Le -> "<=" | Ge -> ">=" | Eq -> "=")
           (Rat.to_string rhs)))
    (List.rev p.constraints);
  Buffer.add_string buf "bounds\n";
  let lower = Array.of_list (List.rev p.lower) in
  let upper = Array.of_list (List.rev p.upper) in
  let integer = Array.of_list (List.rev p.integer) in
  for v = 0 to p.nvars - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %s <= %s%s%s\n" (Rat.to_string lower.(v)) names.(v)
         (match upper.(v) with None -> "" | Some u -> Printf.sprintf " <= %s" (Rat.to_string u))
         (if integer.(v) then "  (integer)" else ""))
  done;
  Buffer.contents buf

(* Solve the LP relaxation of [p] with additional branching rows.
   Variables are shifted by their lower bounds so that the simplex sees
   y = x - lo >= 0. *)
let solve_relaxation (p : problem) ~extra_rows =
  let n = p.nvars in
  let lower = Array.of_list (List.rev p.lower) in
  let upper = Array.of_list (List.rev p.upper) in
  let obj = Array.make n Rat.zero in
  List.iter (fun (c, v) -> obj.(v) <- Rat.add obj.(v) c) p.objective;
  let shift_row { coeffs; rel; rhs } =
    (* sum c_v x_v REL rhs  ==>  sum c_v y_v REL rhs - sum c_v lo_v *)
    let a = Array.make n Rat.zero in
    let shift = ref Rat.zero in
    List.iter
      (fun (c, v) ->
        a.(v) <- Rat.add a.(v) c;
        shift := Rat.add !shift (Rat.mul c lower.(v)))
      coeffs;
    let rel = match rel with Le -> Simplex.Le | Ge -> Simplex.Ge | Eq -> Simplex.Eq in
    (a, rel, Rat.sub rhs !shift)
  in
  let bound_rows = ref [] in
  Array.iteri
    (fun v up ->
      match up with
      | None -> ()
      | Some u ->
          let a = Array.make n Rat.zero in
          a.(v) <- Rat.one;
          bound_rows := (a, Simplex.Le, Rat.sub u lower.(v)) :: !bound_rows)
    upper;
  let rows =
    List.map shift_row (List.rev p.constraints)
    @ List.map shift_row extra_rows
    @ !bound_rows
  in
  match Simplex.solve ~obj ~rows with
  | Simplex.Infeasible -> `Infeasible
  | Simplex.Unbounded -> `Unbounded
  | Simplex.Optimal (y, objval) ->
      let x = Array.mapi (fun v yv -> Rat.add yv lower.(v)) y in
      (* the shifted objective differs from the true one by sum c_v lo_v *)
      let fix = ref objval in
      List.iter (fun (c, v) -> fix := Rat.add !fix (Rat.mul c lower.(v))) p.objective;
      `Optimal (x, !fix)

exception Node_limit
exception Unbounded_relaxation

(* Branch & bound: depth-first, branching on the first fractional integer
   variable. On hitting [max_nodes] the best incumbent so far is returned. *)
let solve ?(max_nodes = 50_000) (p : problem) : outcome =
  let integer = Array.of_list (List.rev p.integer) in
  let incumbent = ref None in
  let nodes = ref 0 in
  let better obj = match !incumbent with None -> true | Some (_, o) -> Rat.lt obj o in
  let rec branch extra_rows =
    incr nodes;
    if !nodes > max_nodes then raise Node_limit;
    match solve_relaxation p ~extra_rows with
    | `Infeasible -> ()
    | `Unbounded ->
        (* with an incumbent this node can't prove unboundedness of the MILP;
           without one we propagate it via an exception *)
        raise Unbounded_relaxation
    | `Optimal (x, obj) ->
        if better obj then begin
          (* find a fractional integer variable *)
          let frac = ref (-1) in
          (try
             Array.iteri
               (fun v xv ->
                 if integer.(v) && not (Rat.is_integer xv) then begin
                   frac := v;
                   raise Exit
                 end)
               x
           with Exit -> ());
          if !frac < 0 then incumbent := Some (x, obj)
          else begin
            let v = !frac and xv = x.(!frac) in
            let floor_row =
              { coeffs = [ (Rat.one, v) ]; rel = Le; rhs = Rat.of_bn (Rat.floor xv) }
            in
            let ceil_row =
              { coeffs = [ (Rat.one, v) ]; rel = Ge; rhs = Rat.of_bn (Rat.ceil xv) }
            in
            branch (floor_row :: extra_rows);
            branch (ceil_row :: extra_rows)
          end
        end
  in
  let of_incumbent () =
    match !incumbent with
    | None -> `Infeasible
    | Some (x, obj) -> `Optimal { values = x; objective = obj }
  in
  match branch [] with
  | () | (exception Node_limit) -> of_incumbent ()
  | exception Unbounded_relaxation -> `Unbounded

let value_int sol v = Rat.to_int_exn sol.values.(v)
