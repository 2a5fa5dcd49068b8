(* Tests for the scheduling infrastructure: the Table 2 problem hierarchy,
   chain breaking, the Figure 7 ILP (exact and network backends), and the
   ASAP baseline. *)

module P = Sched.Problem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ot = P.operator_type

(* chain a -> b -> c with unit latencies *)
let simple_chain () =
  let b = P.builder () in
  let o1 = P.add_operation b ~label:"a" (ot "alu" ~latency:1) in
  let o2 = P.add_operation b ~label:"b" (ot "alu" ~latency:1) in
  let o3 = P.add_operation b ~label:"c" (ot "alu" ~latency:1) in
  P.add_dependence b ~src:o1 ~dst:o2;
  P.add_dependence b ~src:o2 ~dst:o3;
  P.finish b

let test_problem_check_input () =
  let p = simple_chain () in
  P.check_input p (* must not raise *)

let test_cycle_detection () =
  let b = P.builder () in
  let o1 = P.add_operation b ~label:"a" (ot "alu") in
  let o2 = P.add_operation b ~label:"b" (ot "alu") in
  P.add_dependence b ~src:o1 ~dst:o2;
  P.add_dependence b ~src:o2 ~dst:o1;
  let p = P.finish b in
  Alcotest.check_raises "cyclic" (P.Problem_error "dependence graph is cyclic") (fun () ->
      P.check_input p)

let test_empty_window_rejected () =
  let b = P.builder () in
  let _ = P.add_operation b ~label:"a" (ot "x" ~earliest:5 ~latest:4) in
  let p = P.finish b in
  (try
     P.check_input p;
     Alcotest.fail "expected error"
   with P.Problem_error _ -> ())

let test_ilp_schedules_chain () =
  let p = simple_chain () in
  check_bool "scheduled" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Scheduled);
  P.verify p;
  check_int "a" 0 p.P.start_time.(0);
  check_int "b" 1 p.P.start_time.(1);
  check_int "c" 2 p.P.start_time.(2);
  check_int "makespan" 3 (P.makespan p)

let test_windows_respected () =
  let b = P.builder () in
  let o1 = P.add_operation b ~label:"rs1" (ot "RdRS1" ~earliest:2 ~latest:4) in
  let o2 = P.add_operation b ~label:"add" (ot "alu") in
  let o3 = P.add_operation b ~label:"wr" (ot "WrRD" ~earliest:4 ~latest:6) in
  P.add_dependence b ~src:o1 ~dst:o2;
  P.add_dependence b ~src:o2 ~dst:o3;
  let p = P.finish b in
  check_bool "scheduled" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Scheduled);
  P.verify p;
  check_int "rs1 at earliest" 2 p.P.start_time.(o1);
  check_int "wr at its earliest" 4 p.P.start_time.(o3)

let test_infeasible_windows () =
  let b = P.builder () in
  let o1 = P.add_operation b ~label:"late" (ot "a" ~earliest:5 ~latency:1) in
  let o2 = P.add_operation b ~label:"early" (ot "b" ~latest:3) in
  P.add_dependence b ~src:o1 ~dst:o2;
  let p = P.finish b in
  check_bool "infeasible" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Infeasible);
  check_bool "asap infeasible too" true
    (Sched.Asap_scheduler.schedule p = Sched.Asap_scheduler.Infeasible)

(* Figure 6: ADDI on a host with instr word in stages 1..4, register file
   2..4, cycle time 3.5 ns; the write must land strictly after the chain. *)
let test_figure6_scenario () =
  let b = P.builder () in
  let iw = P.add_operation b ~label:"lil.instr_word" (ot "RdInstr" ~earliest:1 ~latest:4 ~outgoing_delay:0.1) in
  let ext = P.add_operation b ~label:"comb.extract" (ot "extract" ~outgoing_delay:0.1) in
  let rs1 = P.add_operation b ~label:"lil.read_rs1" (ot "RdRS1" ~earliest:2 ~latest:4 ~outgoing_delay:0.1) in
  let rep = P.add_operation b ~label:"comb.replicate" (ot "replicate" ~outgoing_delay:0.1) in
  let cat = P.add_operation b ~label:"comb.concat" (ot "concat" ~outgoing_delay:0.1) in
  let add = P.add_operation b ~label:"comb.add" (ot "add" ~outgoing_delay:3.4) in
  let wr = P.add_operation b ~label:"lil.write_rd" (ot "WrRD" ~earliest:2 ~outgoing_delay:0.1) in
  P.add_dependence b ~src:iw ~dst:ext;
  P.add_dependence b ~src:ext ~dst:rep;
  P.add_dependence b ~src:rep ~dst:cat;
  P.add_dependence b ~src:cat ~dst:add;
  P.add_dependence b ~src:rs1 ~dst:add;
  P.add_dependence b ~src:add ~dst:wr;
  let p = P.finish ~cycle_time:3.5 b in
  check_bool "scheduled" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Scheduled);
  P.verify p;
  (* the adder's 3.4 ns output cannot chain into the write in the same
     cycle: a chain breaker pushes write_rd one step later, to time 3 *)
  check_int "rs1 at 2" 2 p.P.start_time.(rs1);
  check_int "write_rd pushed to 3" 3 p.P.start_time.(wr)

let test_chain_breakers () =
  let b = P.builder () in
  let mk lbl d = P.add_operation b ~label:lbl (ot lbl ~outgoing_delay:d) in
  let a = mk "a" 0.5 in
  let c = mk "b" 0.5 in
  let d = mk "c" 0.5 in
  P.add_dependence b ~src:a ~dst:c;
  P.add_dependence b ~src:c ~dst:d;
  let p = P.finish ~cycle_time:1.0 b in
  let breakers = P.chain_breakers p in
  check_int "one breaker" 1 (List.length breakers);
  check_bool "scheduled" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Scheduled);
  check_bool "split across cycles" true (p.P.start_time.(d) > p.P.start_time.(a))

let test_ilp_beats_asap_on_lifetimes () =
  (* a value with two late consumers: delaying the producer saves two
     lifetimes at the cost of one start time, so the ILP delays it while
     ASAP leaves it at time 0 *)
  let build () =
    let b = P.builder () in
    let producer = P.add_operation b ~label:"producer" (ot "alu") in
    let anchor = P.add_operation b ~label:"anchor" (ot "anchor" ~earliest:5) in
    let c1 = P.add_operation b ~label:"c1" (ot "alu") in
    let c2 = P.add_operation b ~label:"c2" (ot "alu") in
    P.add_dependence b ~src:producer ~dst:c1;
    P.add_dependence b ~src:producer ~dst:c2;
    P.add_dependence b ~src:anchor ~dst:c1;
    P.add_dependence b ~src:anchor ~dst:c2;
    P.finish b
  in
  let p = build () in
  check_bool "ilp" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Scheduled);
  let ilp_lifetime = P.total_lifetime p in
  check_int "producer delayed to 5" 5 p.P.start_time.(0);
  let p2 = build () in
  check_bool "asap" true (Sched.Asap_scheduler.schedule p2 = Sched.Asap_scheduler.Scheduled);
  let asap_lifetime = P.total_lifetime p2 in
  check_bool
    (Printf.sprintf "ilp lifetime %d < asap %d" ilp_lifetime asap_lifetime)
    true (ilp_lifetime < asap_lifetime)

let test_start_time_in_cycle () =
  let b = P.builder () in
  let a = P.add_operation b ~label:"a" (ot "a" ~outgoing_delay:0.4) in
  let c = P.add_operation b ~label:"b" (ot "b" ~outgoing_delay:0.4) in
  P.add_dependence b ~src:a ~dst:c;
  let p = P.finish ~cycle_time:1.0 b in
  check_bool "ok" true (Sched.Ilp_scheduler.schedule p = Sched.Ilp_scheduler.Scheduled);
  Alcotest.(check (float 1e-9)) "a starts cycle" 0.0 p.P.start_time_in_cycle.(a);
  Alcotest.(check (float 1e-9)) "b chained after a" 0.4 p.P.start_time_in_cycle.(c)

let test_ilp_text_dump () =
  let p = simple_chain () in
  let txt = Sched.Ilp_scheduler.ilp_text p in
  check_bool "has objective" true (String.length txt > 20);
  check_bool "starts with minimize" true (String.sub txt 0 8 = "minimize")

(* ---- property: the network backend matches the exact MILP ---- *)

let random_problem rng =
  let n = 3 + Random.State.int rng 6 in
  let b = P.builder () in
  let ops =
    Array.init n (fun i ->
        let earliest = Random.State.int rng 3 in
        let latest = if Random.State.bool rng then Some (earliest + Random.State.int rng 6) else None in
        let latency = Random.State.int rng 2 in
        P.add_operation b ~label:(Printf.sprintf "o%d" i) (ot "t" ~earliest ?latest ~latency))
  in
  (* random forward edges to keep the graph acyclic *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.int rng 100 < 35 then P.add_dependence b ~src:ops.(i) ~dst:ops.(j)
    done
  done;
  P.finish b

let objective p =
  let st = Array.fold_left ( + ) 0 p.P.start_time in
  st + P.total_lifetime p

let prop_netflow_matches_exact =
  QCheck.Test.make ~name:"netflow backend is as good as exact MILP" ~count:60 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p1 = random_problem rng in
      let rng = Random.State.make [| seed |] in
      let p2 = random_problem rng in
      let r1 = Sched.Ilp_scheduler.schedule ~backend:Sched.Ilp_scheduler.Netflow p1 in
      let r2 = Sched.Ilp_scheduler.schedule ~backend:Sched.Ilp_scheduler.Exact p2 in
      match (r1, r2) with
      | Sched.Ilp_scheduler.Infeasible, Sched.Ilp_scheduler.Infeasible -> true
      | Sched.Ilp_scheduler.Scheduled, Sched.Ilp_scheduler.Scheduled ->
          P.verify p1;
          P.verify p2;
          objective p1 = objective p2
      | _ -> false)

let prop_asap_minimal =
  QCheck.Test.make ~name:"ASAP start times are componentwise minimal" ~count:60 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p1 = random_problem rng in
      let rng = Random.State.make [| seed |] in
      let p2 = random_problem rng in
      match
        ( Sched.Asap_scheduler.schedule p1,
          Sched.Ilp_scheduler.schedule ~backend:Sched.Ilp_scheduler.Netflow p2 )
      with
      | Sched.Asap_scheduler.Scheduled, Sched.Ilp_scheduler.Scheduled ->
          Array.for_all2 (fun a b -> a <= b) p1.P.start_time p2.P.start_time
      | Sched.Asap_scheduler.Infeasible, Sched.Ilp_scheduler.Infeasible -> true
      | _ -> false)

(* One Incremental instance re-scheduled along a random chain of window
   and latency perturbations (latency changes also flip chain breakers,
   the problem has a cycle time) must reach the exact MILP objective at
   every step, warm or cold. *)
let prop_incremental_matches_exact =
  QCheck.Test.make ~name:"incremental re-schedules match exact MILP" ~count:40 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 5 in
      let deps = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Random.State.int rng 100 < 40 then deps := (i, j) :: !deps
        done
      done;
      let deps = List.rev !deps in
      let delay = Array.init n (fun _ -> 0.1 *. float_of_int (Random.State.int rng 6)) in
      let lots =
        Array.init n (fun _ ->
            let earliest = Random.State.int rng 3 in
            ot "t" ~earliest ~latency:(Random.State.int rng 2))
      in
      let build () =
        let b = P.builder () in
        Array.iteri
          (fun i lot ->
            ignore
              (P.add_operation b ~label:(Printf.sprintf "o%d" i)
                 { lot with P.outgoing_delay = delay.(i) }))
          lots;
        List.iter (fun (src, dst) -> P.add_dependence b ~src ~dst) deps;
        P.finish ~cycle_time:1.0 b
      in
      let perturb () =
        let i = Random.State.int rng n in
        let lot = lots.(i) in
        lots.(i) <-
          (match Random.State.int rng 3 with
          | 0 -> { lot with P.latency = Random.State.int rng 3 }
          | 1 ->
              let earliest = Random.State.int rng 4 in
              let latest = Option.map (fun _ -> earliest + 2) lot.P.latest in
              { lot with P.earliest; latest }
          | _ ->
              let latest =
                if Random.State.bool rng then None
                else Some (lot.P.earliest + Random.State.int rng 5)
              in
              { lot with P.latest })
      in
      let inc = Sched.Ilp_scheduler.Incremental.create (build ()) in
      List.for_all
        (fun step ->
          if step > 0 then perturb ();
          let p1 = build () and p2 = build () in
          let r1 = Sched.Ilp_scheduler.Incremental.schedule inc p1 in
          let r2 = Sched.Ilp_scheduler.schedule ~backend:Sched.Ilp_scheduler.Exact p2 in
          match (r1, r2) with
          | Sched.Ilp_scheduler.Infeasible, Sched.Ilp_scheduler.Infeasible -> true
          | Sched.Ilp_scheduler.Scheduled, Sched.Ilp_scheduler.Scheduled ->
              P.verify p1;
              objective p1 = objective p2
              || QCheck.Test.fail_reportf "step %d: incremental %d, exact %d" step (objective p1)
                   (objective p2)
          | _ -> QCheck.Test.fail_reportf "step %d: feasibility differs" step)
        (List.init 8 Fun.id))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_netflow_matches_exact; prop_asap_minimal; prop_incremental_matches_exact ]

let () =
  Alcotest.run "sched"
    [
      ( "problem",
        [
          Alcotest.test_case "input constraints" `Quick test_problem_check_input;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "empty window" `Quick test_empty_window_rejected;
          Alcotest.test_case "start time in cycle" `Quick test_start_time_in_cycle;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "ilp chain" `Quick test_ilp_schedules_chain;
          Alcotest.test_case "windows respected" `Quick test_windows_respected;
          Alcotest.test_case "infeasible windows" `Quick test_infeasible_windows;
          Alcotest.test_case "figure 6 scenario" `Quick test_figure6_scenario;
          Alcotest.test_case "chain breakers" `Quick test_chain_breakers;
          Alcotest.test_case "ilp beats asap lifetimes" `Quick test_ilp_beats_asap_on_lifetimes;
          Alcotest.test_case "ilp text dump" `Quick test_ilp_text_dump;
        ] );
      ("properties", qcheck_cases);
    ]
