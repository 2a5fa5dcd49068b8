(* Tests for the exact LP/MILP solver substrate. *)

module Rat = Lp.Rat
module Simplex = Lp.Simplex
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
  let p = Lp.create () in
  let x = Lp.add_int_var p ~name:"x" in
  Lp.add_int_constraint p [ (2, x) ] Lp.Le 5;
  Lp.set_int_objective p [ (-1, x) ];
  (match Lp.solve p with
  | `Optimal sol -> check_int "x" 2 (Lp.value_int sol x)
  | _ -> Alcotest.fail "expected optimal")

let test_milp_knapsack () =
  (* classic small knapsack: values 10,13,7; weights 3,4,2; cap 6.
     best = items 2+3: weight 6, value 20 *)
  let p = Lp.create () in
  let xs =
    List.map (fun i -> Lp.add_int_var p ~upper:1 ~name:(Printf.sprintf "x%d" i)) [ 1; 2; 3 ]
  in
  (match xs with
  | [ x1; x2; x3 ] ->
      Lp.add_int_constraint p [ (3, x1); (4, x2); (2, x3) ] Lp.Le 6;
      Lp.set_int_objective p [ (-10, x1); (-13, x2); (-7, x3) ];
      (match Lp.solve p with
      | `Optimal sol ->
          check_int "obj" (-20) (Rat.to_int_exn sol.Lp.objective);
          check_int "x1" 0 (Lp.value_int sol x1);
          check_int "x2" 1 (Lp.value_int sol x2);
          check_int "x3" 1 (Lp.value_int sol x3)
      | _ -> Alcotest.fail "expected optimal")
  | _ -> assert false)

let test_milp_scheduling_shape () =
  (* A miniature LongnailProblem-shaped ILP: chain a -> b -> c with latencies
     1,1; b constrained to start >= 3 (earliest); minimize sum of start
     times. Expect a=0 (free), b=3, c=4. *)
  let p = Lp.create () in
  let ta = Lp.add_int_var p ~name:"ta" in
  let tb = Lp.add_int_var p ~name:"tb" in
  let tc = Lp.add_int_var p ~name:"tc" in
  Lp.add_int_constraint p [ (1, tb); (-1, ta) ] Lp.Ge 1;
  Lp.add_int_constraint p [ (1, tc); (-1, tb) ] Lp.Ge 1;
  Lp.add_int_constraint p [ (1, tb) ] Lp.Ge 3;
  Lp.set_int_objective p [ (1, ta); (1, tb); (1, tc) ];
  (match Lp.solve p with
  | `Optimal sol ->
      check_int "ta" 0 (Lp.value_int sol ta);
      check_int "tb" 3 (Lp.value_int sol tb);
      check_int "tc" 4 (Lp.value_int sol tc)
  | _ -> Alcotest.fail "expected optimal")

let test_milp_infeasible_window () =
  (* earliest > latest on the same op *)
  let p = Lp.create () in
  let t = Lp.add_int_var p ~name:"t" in
  Lp.add_int_constraint p [ (1, t) ] Lp.Ge 5;
  Lp.add_int_constraint p [ (1, t) ] Lp.Le 4;
  Lp.set_int_objective p [ (1, t) ];
  (match Lp.solve p with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_lp_to_text () =
  let p = Lp.create () in
  let x = Lp.add_int_var p ~name:"x" ~upper:7 in
  Lp.add_int_constraint p [ (1, x) ] Lp.Ge 2;
  Lp.set_int_objective p [ (1, x) ];
  let txt = Lp.to_text p in
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

(* ---- persistent instances (warm-start API) ---- *)

module I = Lp.Instance

(* a scheduling-shaped integer program: difference rows t_dst - t_src >= w
   over [sp_n] variables, plus per-variable bounds and integer costs. The
   arrays are the mutable data an incremental sweep moves; [build_problem]
   rebuilds a fresh one-shot problem from the current numbers so every
   warm resolve can be checked against a genuinely cold solve. *)
type ispec = {
  sp_n : int;
  sp_deps : (int * int) list;  (* (dst, src), row order *)
  sp_w : int array;  (* weight per row *)
  sp_lower : int array;
  sp_upper : int option array;
  sp_cost : int array;
}

let build_problem spec =
  let p = Lp.create () in
  let vs =
    Array.init spec.sp_n (fun i ->
        Lp.add_int_var p ~lower:spec.sp_lower.(i) ?upper:spec.sp_upper.(i)
          ~name:(Printf.sprintf "t%d" i))
  in
  List.iteri
    (fun r (dst, src) ->
      Lp.add_int_constraint p [ (1, vs.(dst)); (-1, vs.(src)) ] Lp.Ge spec.sp_w.(r))
    spec.sp_deps;
  Lp.set_int_objective p
    (List.filter
       (fun (c, _) -> c <> 0)
       (Array.to_list (Array.mapi (fun i c -> (c, vs.(i))) spec.sp_cost)));
  p

let cold_solve spec = Lp.solve (build_problem spec)

(* the same numbers as a difference system, the instance's input *)
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

(* push the spec's current numbers into the instance *)
let sync_instance inst spec =
  List.iteri (fun r _ -> I.update_weight inst r spec.sp_w.(r)) spec.sp_deps;
  Array.iteri
    (fun v lower -> I.update_bounds inst v ~lower ~upper:spec.sp_upper.(v))
    spec.sp_lower

let show = function
  | `Optimal _ -> "optimal"
  | `Infeasible -> "infeasible"
  | `Unbounded -> "unbounded"

(* [warm] from a long-lived instance, [fresh] from a new instance on the
   same numbers, [oracle] from the simplex/B&B MILP solver: the two
   instance answers must be identical, and optimal for the oracle *)
let outcome_matches name spec ~warm ~fresh ~oracle =
  (warm = fresh
  || QCheck.Test.fail_reportf "%s: warm %s differs from fresh %s" name (show warm) (show fresh))
  &&
  match (warm, oracle) with
  | `Optimal sol, `Optimal (sb : Lp.solution) ->
      let obj = Netopt.objective ~cost:spec.sp_cost sol in
      Rat.equal (rat obj) sb.Lp.objective
      || QCheck.Test.fail_reportf "%s: warm obj %d <> oracle obj %s" name obj
           (Rat.to_string sb.Lp.objective)
  | `Infeasible, `Infeasible | `Unbounded, `Unbounded -> true
  | _ -> QCheck.Test.fail_reportf "%s: warm %s, oracle %s" name (show warm) (show oracle)

let test_instance_classification () =
  let diff =
    { sp_n = 3; sp_deps = [ (1, 0); (2, 1) ]; sp_w = [| 1; 1 |];
      sp_lower = [| 0; 0; 0 |]; sp_upper = [| None; None; None |]; sp_cost = [| 1; 1; 1 |] }
  in
  check_str "pure difference system" "difference"
    (I.klass_name (I.classify (I.create (system_of diff))));
  let netflow = { diff with sp_cost = [| 1; -2; 1 |]; sp_upper = [| Some 9; Some 9; Some 9 |] } in
  check_str "negative costs go to netflow" "netflow"
    (I.klass_name (I.classify (I.create (system_of netflow))))

let test_instance_update_guards () =
  let spec =
    { sp_n = 2; sp_deps = [ (1, 0) ]; sp_w = [| 1 |]; sp_lower = [| 0; 0 |];
      sp_upper = [| None; None |]; sp_cost = [| 1; 1 |] }
  in
  let inst = I.create (system_of spec) in
  check_int "edge count" 1 (I.nedges inst);
  (match I.update_weight inst 3 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument for edge out of range");
  match I.update_bounds inst 7 ~lower:0 ~upper:None with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument for bounds var out of range"

let test_instance_warm_counters () =
  (* a monotone-tightening chain stays on the fast path and warm-starts
     every resolve after the first *)
  let spec =
    { sp_n = 3; sp_deps = [ (1, 0); (2, 1) ]; sp_w = [| 1; 1 |]; sp_lower = [| 0; 0; 0 |];
      sp_upper = [| None; None; None |]; sp_cost = [| 1; 1; 1 |] }
  in
  let inst = I.create (system_of spec) in
  ignore (I.resolve inst);
  I.update_weight inst 0 2;
  ignore (I.resolve inst);
  I.update_bounds inst 1 ~lower:4 ~upper:None;
  (match I.resolve inst with
  | `Optimal sol ->
      check_int "t1 pushed to 4" 4 sol.(1);
      check_int "t2 follows" 5 sol.(2)
  | _ -> Alcotest.fail "expected optimal");
  let st = I.stats inst in
  check_int "three resolves" 3 st.I.is_resolves;
  check_int "two warm hits, one cold start" 2 st.I.is_warm_hits;
  check_bool "relaxation sweeps counted" true (st.I.is_bf_rounds >= 3);
  (* loosening a weight forces a cold start *)
  I.update_weight inst 1 0;
  ignore (I.resolve inst);
  check_int "no warm hit on loosening" 2 (I.stats inst).I.is_warm_hits

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
   only tightens — exactly the shape an incremental DSE sweep produces *)
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

let run_chain (spec, perturbs) =
  let inst = I.create (system_of spec) in
  let step name =
    sync_instance inst spec;
    let warm = I.resolve inst in
    outcome_matches name spec ~warm ~fresh:(I.resolve (I.create (system_of spec)))
      ~oracle:(cold_solve spec)
  in
  let ok0 = step "initial" in
  ok0
  && List.for_all
       (fun pert ->
         apply_perturb spec pert;
         step "after perturbation")
       perturbs

let prop_instance_warm_equals_cold =
  QCheck.Test.make ~name:"warm resolve == cold solve on tightening chains" ~count:60
    (QCheck.make gen_diff_chain) (fun ((spec, _) as chain) ->
      let inst = I.create (system_of spec) in
      I.classify inst = I.Difference && run_chain chain)

(* same shape but with negative costs, finite-or-absent uppers and
   loosening updates too: resolves must track the cold solver through
   optimal -> infeasible -> optimal -> unbounded transitions *)
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
           (* weights and lowers move both ways: a loosening step must
              not warm-start from a least element above the new one *)
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

let prop_instance_transitions =
  QCheck.Test.make
    ~name:"resolve tracks cold solver through infeasible/unbounded transitions" ~count:60
    (QCheck.make gen_transition_chain) run_chain

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rat_field;
      prop_rat_floor_le;
      prop_difference_minimality;
      prop_instance_warm_equals_cold;
      prop_instance_transitions;
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
        ] );
      ( "instance",
        [
          Alcotest.test_case "classification" `Quick test_instance_classification;
          Alcotest.test_case "update guards" `Quick test_instance_update_guards;
          Alcotest.test_case "warm counters" `Quick test_instance_warm_counters;
        ] );
      ("properties", qcheck_cases);
    ]
