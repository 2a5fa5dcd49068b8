(* Tests for the exact LP/MILP solver substrate. *)

module Rat = Oracle.Rat
module Simplex = Oracle.Simplex
module Milp = Oracle.Milp
module Netopt = Lp.Netopt

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let rat = Rat.of_int

(* ---- Rat ---- *)

let test_rat_basics () =
  let half = Rat.of_ints 1 2 and third = Rat.of_ints 1 3 in
  check_str "1/2+1/3" "5/6" (Rat.to_string (Rat.add half third));
  check_str "1/2*1/3" "1/6" (Rat.to_string (Rat.mul half third));
  check_str "(1/2)/(1/3)" "3/2" (Rat.to_string (Rat.div half third));
  check_bool "1/2 < 2/3" true (Rat.lt half (Rat.of_ints 2 3));
  check_str "normalize" "1/2" (Rat.to_string (Rat.of_ints 17 34));
  check_str "neg den" "-1/2" (Rat.to_string (Rat.of_ints 1 (-2)))

let test_rat_floor_ceil () =
  let f x = Bitvec.Bn.to_int_exn (Rat.floor x) and c x = Bitvec.Bn.to_int_exn (Rat.ceil x) in
  check_int "floor 7/2" 3 (f (Rat.of_ints 7 2));
  check_int "ceil 7/2" 4 (c (Rat.of_ints 7 2));
  check_int "floor -7/2" (-4) (f (Rat.of_ints (-7) 2));
  check_int "ceil -7/2" (-3) (c (Rat.of_ints (-7) 2));
  check_int "floor 4" 4 (f (rat 4));
  check_int "ceil 4" 4 (c (rat 4))

(* ---- Simplex ---- *)

let opt_values = function
  | Simplex.Optimal (x, obj) -> (Array.map Rat.to_float x, Rat.to_float obj)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_basic () =
  (* minimize -x - y  s.t. x + y <= 4, x <= 3, y <= 2  -> x=3,y=1? or 2,2; obj -4 *)
  let obj = [| rat (-1); rat (-1) |] in
  let rows =
    [
      ([| rat 1; rat 1 |], Simplex.Le, rat 4);
      ([| rat 1; rat 0 |], Simplex.Le, rat 3);
      ([| rat 0; rat 1 |], Simplex.Le, rat 2);
    ]
  in
  let _, obj_v = opt_values (Simplex.solve ~obj ~rows) in
  Alcotest.(check (float 1e-9)) "objective" (-4.0) obj_v

let test_simplex_eq_and_ge () =
  (* minimize x + y  s.t. x + y >= 3, x = 1  -> x=1, y=2, obj 3 *)
  let obj = [| rat 1; rat 1 |] in
  let rows =
    [ ([| rat 1; rat 1 |], Simplex.Ge, rat 3); ([| rat 1; rat 0 |], Simplex.Eq, rat 1) ]
  in
  let x, obj_v = opt_values (Simplex.solve ~obj ~rows) in
  Alcotest.(check (float 1e-9)) "x" 1.0 x.(0);
  Alcotest.(check (float 1e-9)) "y" 2.0 x.(1);
  Alcotest.(check (float 1e-9)) "obj" 3.0 obj_v

let test_simplex_infeasible () =
  let obj = [| rat 1 |] in
  let rows =
    [ ([| rat 1 |], Simplex.Ge, rat 5); ([| rat 1 |], Simplex.Le, rat 2) ]
  in
  (match Simplex.solve ~obj ~rows with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  let obj = [| rat (-1) |] in
  let rows = [ ([| rat 1 |], Simplex.Ge, rat 0) ] in
  (match Simplex.solve ~obj ~rows with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded")

let test_simplex_degenerate () =
  (* degenerate vertex: Bland's rule must still terminate *)
  let obj = [| rat (-3); rat (-2) |] in
  let rows =
    [
      ([| rat 1; rat 1 |], Simplex.Le, rat 0);
      ([| rat 1; rat 2 |], Simplex.Le, rat 0);
      ([| rat 2; rat 1 |], Simplex.Le, rat 0);
    ]
  in
  let _, obj_v = opt_values (Simplex.solve ~obj ~rows) in
  Alcotest.(check (float 1e-9)) "degenerate optimum" 0.0 obj_v

(* ---- MILP ---- *)

let test_milp_rounding () =
  (* maximize x (= minimize -x) s.t. 2x <= 5, x integer -> x = 2 *)
  let p = Milp.create () in
  let x = Milp.add_int_var p ~name:"x" in
  Milp.add_int_constraint p [ (2, x) ] Milp.Le 5;
  Milp.set_int_objective p [ (-1, x) ];
  (match Milp.solve p with
  | `Optimal sol -> check_int "x" 2 (Milp.value_int sol x)
  | _ -> Alcotest.fail "expected optimal")

let test_milp_knapsack () =
  (* classic small knapsack: values 10,13,7; weights 3,4,2; cap 6.
     best = items 2+3: weight 6, value 20 *)
  let p = Milp.create () in
  let xs =
    List.map (fun i -> Milp.add_int_var p ~upper:1 ~name:(Printf.sprintf "x%d" i)) [ 1; 2; 3 ]
  in
  (match xs with
  | [ x1; x2; x3 ] ->
      Milp.add_int_constraint p [ (3, x1); (4, x2); (2, x3) ] Milp.Le 6;
      Milp.set_int_objective p [ (-10, x1); (-13, x2); (-7, x3) ];
      (match Milp.solve p with
      | `Optimal sol ->
          check_int "obj" (-20) (Rat.to_int_exn sol.Milp.objective);
          check_int "x1" 0 (Milp.value_int sol x1);
          check_int "x2" 1 (Milp.value_int sol x2);
          check_int "x3" 1 (Milp.value_int sol x3)
      | _ -> Alcotest.fail "expected optimal")
  | _ -> assert false)

let test_milp_scheduling_shape () =
  (* A miniature LongnailProblem-shaped ILP: chain a -> b -> c with latencies
     1,1; b constrained to start >= 3 (earliest); minimize sum of start
     times. Expect a=0 (free), b=3, c=4. *)
  let p = Milp.create () in
  let ta = Milp.add_int_var p ~name:"ta" in
  let tb = Milp.add_int_var p ~name:"tb" in
  let tc = Milp.add_int_var p ~name:"tc" in
  Milp.add_int_constraint p [ (1, tb); (-1, ta) ] Milp.Ge 1;
  Milp.add_int_constraint p [ (1, tc); (-1, tb) ] Milp.Ge 1;
  Milp.add_int_constraint p [ (1, tb) ] Milp.Ge 3;
  Milp.set_int_objective p [ (1, ta); (1, tb); (1, tc) ];
  (match Milp.solve p with
  | `Optimal sol ->
      check_int "ta" 0 (Milp.value_int sol ta);
      check_int "tb" 3 (Milp.value_int sol tb);
      check_int "tc" 4 (Milp.value_int sol tc)
  | _ -> Alcotest.fail "expected optimal")

let test_milp_infeasible_window () =
  (* earliest > latest on the same op *)
  let p = Milp.create () in
  let t = Milp.add_int_var p ~name:"t" in
  Milp.add_int_constraint p [ (1, t) ] Milp.Ge 5;
  Milp.add_int_constraint p [ (1, t) ] Milp.Le 4;
  Milp.set_int_objective p [ (1, t) ];
  (match Milp.solve p with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_lp_to_text () =
  let p = Milp.create () in
  let x = Milp.add_int_var p ~name:"x" ~upper:7 in
  Milp.add_int_constraint p [ (1, x) ] Milp.Ge 2;
  Milp.set_int_objective p [ (1, x) ];
  let txt = Milp.to_text p in
  check_bool "mentions minimize" true (String.length txt > 0 && String.sub txt 0 8 = "minimize");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions bounds" true (contains "bounds" txt)

(* ---- Difference-constraint least element (Netopt.asap) ---- *)

let diff_system ?(lower = [||]) ?(upper = [||]) n edges : Netopt.system =
  {
    edges =
      Array.of_list (List.map (fun (s, t, w) -> { Netopt.e_src = s; e_dst = t; e_w = w }) edges);
    lower = Array.init n (fun i -> if i < Array.length lower then lower.(i) else 0);
    upper = Array.init n (fun i -> if i < Array.length upper then upper.(i) else None);
    cost = Array.make n 1;
  }

let test_difference_matches_ilp () =
  match Netopt.asap (diff_system 3 [ (0, 1, 1); (1, 2, 1) ] ~lower:[| 0; 3 |]) with
  | Some sol ->
      check_int "t0" 0 sol.(0);
      check_int "t1" 3 sol.(1);
      check_int "t2" 4 sol.(2)
  | None -> Alcotest.fail "expected feasible"

let test_difference_infeasible_upper () =
  check_bool "infeasible" true
    (Netopt.asap (diff_system 2 [ (0, 1, 5) ] ~upper:[| None; Some 3 |]) = None)

let test_difference_positive_cycle () =
  check_bool "positive cycle infeasible" true
    (Netopt.asap (diff_system 2 [ (0, 1, 1); (1, 0, 1) ]) = None)

(* ---- Netopt.solve against the MILP oracle ---- *)

(* a scheduling-shaped integer program: difference rows t_dst - t_src >= w
   over [sp_n] variables, plus per-variable bounds and integer costs. The
   arrays are the data a perturbation chain moves; [build_problem] builds
   the same numbers as a one-shot MILP for the simplex/B&B oracle. *)
type ispec = {
  sp_n : int;
  sp_deps : (int * int) list;  (* (dst, src), row order *)
  sp_w : int array;  (* weight per row *)
  sp_lower : int array;
  sp_upper : int option array;
  sp_cost : int array;
}

let build_problem spec =
  let p = Milp.create () in
  let vs =
    Array.init spec.sp_n (fun i ->
        Milp.add_int_var p ~lower:spec.sp_lower.(i) ?upper:spec.sp_upper.(i)
          ~name:(Printf.sprintf "t%d" i))
  in
  List.iteri
    (fun r (dst, src) ->
      Milp.add_int_constraint p [ (1, vs.(dst)); (-1, vs.(src)) ] Milp.Ge spec.sp_w.(r))
    spec.sp_deps;
  Milp.set_int_objective p
    (List.filter
       (fun (c, _) -> c <> 0)
       (Array.to_list (Array.mapi (fun i c -> (c, vs.(i))) spec.sp_cost)));
  p

(* the same numbers as a difference system, {!Netopt.solve}'s input *)
let system_of spec : Netopt.system =
  {
    edges =
      Array.of_list
        (List.mapi (fun r (dst, src) -> { Netopt.e_src = src; e_dst = dst; e_w = spec.sp_w.(r) })
           spec.sp_deps);
    lower = Array.copy spec.sp_lower;
    upper = Array.copy spec.sp_upper;
    cost = Array.copy spec.sp_cost;
  }

let show = function
  | `Optimal _ -> "optimal"
  | `Infeasible -> "infeasible"
  | `Unbounded -> "unbounded"

(* [Netopt.solve] must agree with the simplex/B&B MILP oracle on
   feasibility and boundedness, and reach its optimal objective *)
let solve_matches_oracle name spec =
  match (Netopt.solve (system_of spec), Milp.solve (build_problem spec)) with
  | `Optimal sol, `Optimal (sb : Milp.solution) ->
      let obj = Netopt.objective ~cost:spec.sp_cost sol in
      Rat.equal (rat obj) sb.Milp.objective
      || QCheck.Test.fail_reportf "%s: obj %d <> oracle obj %s" name obj
           (Rat.to_string sb.Milp.objective)
  | `Infeasible, `Infeasible | `Unbounded, `Unbounded -> true
  | got, oracle -> QCheck.Test.fail_reportf "%s: %s, oracle %s" name (show got) (show oracle)

let test_simplex_budget_exhausted () =
  let obj = [| rat 1; rat 1 |] in
  let rows =
    [ ([| rat 1; rat 1 |], Simplex.Ge, rat 3); ([| rat 1; rat 0 |], Simplex.Eq, rat 1) ]
  in
  match Simplex.solve_ext ~budget:0 ~obj ~rows () with
  | exception Simplex.Iteration_limit b -> check_int "budget carried" 0 b
  | _ -> Alcotest.fail "expected Iteration_limit"

(* ---- properties ---- *)

let arb_rat =
  QCheck.map
    (fun (n, d) -> Rat.of_ints n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-50) 50))

let prop_rat_field =
  QCheck.Test.make ~name:"rat add/mul associativity+distributivity" ~count:300
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c))
      && Rat.equal (Rat.mul (Rat.mul a b) c) (Rat.mul a (Rat.mul b c))
      && Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_rat_floor_le =
  QCheck.Test.make ~name:"rat floor <= x < floor+1" ~count:300 arb_rat (fun x ->
      let f = Rat.of_bn (Rat.floor x) in
      Rat.le f x && Rat.lt x (Rat.add f Rat.one))

let prop_difference_minimality =
  (* the least element satisfies every constraint, and lowering any one
     entry of it breaks one: it is componentwise minimal *)
  QCheck.Test.make ~name:"difference solution satisfies all constraints" ~count:100
    (QCheck.list_of_size (QCheck.Gen.return 10)
       (QCheck.triple (QCheck.int_range 0 5) (QCheck.int_range 0 5) (QCheck.int_range 0 3)))
    (fun edges ->
      let edges = List.filter (fun (s, t, _) -> s <> t) edges in
      match Netopt.asap (diff_system 6 edges) with
      | None -> true (* cycles possible with random edges *)
      | Some sol ->
          let feasible x = List.for_all (fun (s, t, w) -> x.(t) - x.(s) >= w) edges in
          feasible sol
          && Array.for_all (fun v -> v >= 0) sol
          && List.for_all
               (fun i ->
                 sol.(i) = 0
                 ||
                 let x = Array.copy sol in
                 x.(i) <- x.(i) - 1;
                 not (feasible x))
               (List.init 6 Fun.id))

(* random scheduling-shaped spec: a DAG of difference rows (dst > src, so
   the initial system is always feasible) plus a perturbation chain that
   only tightens, as shrinking a DSE sweep's cycle time does *)
let gen_diff_chain =
  QCheck.Gen.(
    int_range 3 6 >>= fun n ->
    list_size (int_range 2 8)
      (int_range 1 (n - 1) >>= fun dst ->
       int_range 0 (dst - 1) >>= fun src -> return (dst, src))
    >>= fun deps ->
    let ndeps = List.length deps in
    list_size (return ndeps) (int_range 0 4) >>= fun ws ->
    list_size (return n) (int_range 0 3) >>= fun lows ->
    list_size (int_range 1 6)
      (oneof
         [
           (int_range 0 (ndeps - 1) >>= fun r ->
            int_range 1 3 >>= fun d -> return (`Rhs (r, d)));
           (int_range 0 (n - 1) >>= fun v ->
            int_range 1 4 >>= fun d -> return (`Low (v, d)));
         ])
    >>= fun perturbs ->
    return
      ( {
          sp_n = n;
          sp_deps = deps;
          sp_w = Array.of_list ws;
          sp_lower = Array.of_list lows;
          sp_upper = Array.make n None;
          sp_cost = Array.make n 1;
        },
        perturbs ))

let apply_perturb spec = function
  | `Rhs (r, d) -> spec.sp_w.(r) <- spec.sp_w.(r) + d
  | `Low (v, d) -> spec.sp_lower.(v) <- spec.sp_lower.(v) + d
  | `Up (v, u) -> spec.sp_upper.(v) <- u

(* every step of the chain is checked as an independent system *)
let run_chain (spec, perturbs) =
  solve_matches_oracle "initial" spec
  && List.for_all
       (fun pert ->
         apply_perturb spec pert;
         solve_matches_oracle "after perturbation" spec)
       perturbs

(* same shape but with negative costs, finite-or-absent uppers and
   loosening updates too: the chain passes through optimal, infeasible
   and unbounded systems *)
let gen_transition_chain =
  QCheck.Gen.(
    int_range 3 5 >>= fun n ->
    list_size (int_range 2 6)
      (int_range 1 (n - 1) >>= fun dst ->
       int_range 0 (dst - 1) >>= fun src -> return (dst, src))
    >>= fun deps ->
    let ndeps = List.length deps in
    list_size (return ndeps) (int_range 0 3) >>= fun ws ->
    list_size (return n) (int_range (-2) 2) >>= fun costs ->
    list_size (int_range 2 7)
      (oneof
         [
           (* weights and lowers move both ways *)
           (int_range 0 (ndeps - 1) >>= fun r ->
            int_range (-3) 3 >>= fun d -> return (`Rhs (r, d)));
           (int_range 0 (n - 1) >>= fun v ->
            int_range (-4) 4 >>= fun d -> return (`Low (v, d)));
           (* squeeze an upper bound: often below a lower or a chain,
              flipping the system infeasible *)
           (int_range 0 (n - 1) >>= fun v ->
            int_range 0 2 >>= fun u -> return (`Up (v, Some u)));
           (* release an upper: with a negative cost this can flip the
              system unbounded *)
           (int_range 0 (n - 1) >>= fun v -> return (`Up (v, None)));
         ])
    >>= fun perturbs ->
    return
      ( {
          sp_n = n;
          sp_deps = deps;
          sp_w = Array.of_list ws;
          sp_lower = Array.make n 0;
          sp_upper = Array.make n (Some 8);
          sp_cost = Array.of_list costs;
        },
        perturbs ))

let prop_solve_matches_oracle =
  QCheck.Test.make ~name:"netopt solve == MILP oracle on chain steps" ~count:60
    (QCheck.make (QCheck.Gen.pair gen_diff_chain gen_transition_chain))
    (fun (tightening, transitions) -> run_chain tightening && run_chain transitions)

(* ---- Netopt.solve does not depend on the order of the edges ---- *)

(* Each ascent step shifts the source side of the minimal minimum cut,
   which every maximum flow leaves the same, so shuffling the edges (and
   with them the max-flow arcs) must not change the answer. *)
let shuffle_edges rng (s : Netopt.system) =
  let e = Array.copy s.edges in
  for i = Array.length e - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = e.(i) in
    e.(i) <- e.(j);
    e.(j) <- x
  done;
  { s with edges = e }

(* up to 30 variables with mixed-sign costs, forward edges, a fifth of
   them backward with negative weight (deadlines) and mostly finite upper
   bounds: about 58% optimal (most after ascent steps), 31% unbounded and
   11% infeasible *)
let random_system rng : Netopt.system =
  let n = 2 + Random.State.int rng 29 in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let edge _ =
    let a = Random.State.int rng (n - 1) in
    let b = int (a + 1) (n - 1) in
    if Random.State.int rng 5 = 0 then { Netopt.e_src = b; e_dst = a; e_w = int (-12) (-2) }
    else { Netopt.e_src = a; e_dst = b; e_w = int 0 2 }
  in
  let lower = Array.init n (fun _ -> int 0 3) in
  {
    edges = Array.init (Random.State.int rng (3 * n)) edge;
    lower;
    upper = Array.map (fun l -> if int 0 9 < 8 then Some (l + int 10 40) else None) lower;
    cost = Array.init n (fun _ -> int (-3) 3);
  }

let prop_solve_ignores_edge_order =
  QCheck.Test.make ~name:"netopt solve ignores edge order" ~count:300 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s = random_system rng in
      let want = Netopt.solve s in
      List.for_all (fun _ -> Netopt.solve (shuffle_edges rng s) = want) [ 1; 2; 3 ])

let test_sqrt_ignores_edge_order () =
  let c =
    Longnail.Flow.compile Scaiev.Datasheet.vexriscv (Isax.Registry.compile_by_name "sqrt_tightly")
  in
  let f = Option.get (Longnail.Flow.find_func c "SQRT") in
  let s = Sched.Problem.difference_system f.Longnail.Flow.cf_built.Longnail.Sched_build.problem in
  let want = Netopt.solve s in
  check_bool "optimal" true (match want with `Optimal _ -> true | _ -> false);
  for seed = 1 to 5 do
    check_bool
      (Printf.sprintf "shuffle %d" seed)
      true
      (Netopt.solve (shuffle_edges (Random.State.make [| seed |]) s) = want)
  done

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_rat_field;
      prop_rat_floor_le;
      prop_difference_minimality;
      prop_solve_matches_oracle;
      prop_solve_ignores_edge_order;
    ]

let () =
  Alcotest.run "lp"
    [
      ( "rat",
        [
          Alcotest.test_case "basics" `Quick test_rat_basics;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic LP" `Quick test_simplex_basic;
          Alcotest.test_case "eq and ge rows" `Quick test_simplex_eq_and_ge;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate termination" `Quick test_simplex_degenerate;
          Alcotest.test_case "iteration budget" `Quick test_simplex_budget_exhausted;
        ] );
      ( "milp",
        [
          Alcotest.test_case "integer rounding" `Quick test_milp_rounding;
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "scheduling shape" `Quick test_milp_scheduling_shape;
          Alcotest.test_case "infeasible window" `Quick test_milp_infeasible_window;
          Alcotest.test_case "to_text" `Quick test_lp_to_text;
        ] );
      ( "difference",
        [
          Alcotest.test_case "matches ILP result" `Quick test_difference_matches_ilp;
          Alcotest.test_case "upper bound infeasible" `Quick test_difference_infeasible_upper;
          Alcotest.test_case "positive cycle" `Quick test_difference_positive_cycle;
          Alcotest.test_case "SQRT ignores edge order" `Quick test_sqrt_ignores_edge_order;
        ] );
      ("properties", qcheck_cases);
    ]
