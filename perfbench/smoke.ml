(* The benchmark's own smoke test (bash perfbench/run.sh smoke, from the
   repository root). Every workload runs for a few ops, untraced and
   traced; each must check out, and report exactly the metrics
   BENCHMARK.json names, all finite. Then one expected digest is
   corrupted: the op that meets it must count as failed, and the run must
   still return a result. Exits 1 on the first violation. *)

open Common

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: FAIL " ^ s); exit 1) fmt

let names section =
  match Json.parse (read_file "BENCHMARK.json") with
  | Error e -> fail "BENCHMARK.json: %s" e
  | Ok j ->
      List.map
        (fun x -> Option.get (Json.get_string (Json.member "name" x)))
        (Option.value (Json.get_list (Json.member section j)) ~default:[])

let env ~cli ~tmp ~trace =
  {
    seed = 1;
    trace;
    tmp;
    cli;
    expected = Compile_cold.load_expected Compile_cold.expected_file;
    max_ops = Some 24;
  }

let check_metrics what (o : Bench.outcome) want =
  let got = List.map (fun x -> x.m_name) o.metrics in
  List.iter (fun n -> if not (List.mem n got) then fail "%s: metric %s missing" what n) want;
  List.iter (fun n -> if not (List.mem n want) then fail "%s: metric %s not in BENCHMARK.json" what n) got;
  List.iter
    (fun x -> if not (Float.is_finite x.m_value) then fail "%s: %s is not finite" what x.m_name)
    o.metrics;
  if not o.correct || o.failed <> 0 || o.attempted < 1 then
    fail "%s: correct=%b attempted=%d failed=%d" what o.correct o.attempted o.failed;
  Printf.printf "smoke: ok %s (%d ops, %d metrics)\n%!" what o.attempted (List.length got)

let () =
  let cli =
    match Array.to_list Sys.argv with
    | [ _; "--cli"; cli ] -> cli
    | _ -> fail "usage: smoke.exe --cli PATH"
  in
  let e2e = names "end_to_end" and layers = names "per_layer" in
  let run ~trace workload =
    Bench.with_tmp_dir (fun tmp -> Bench.run ~workload ~env:(env ~cli ~tmp ~trace) ~seconds:600.0)
  in
  List.iter (fun w -> check_metrics w (run ~trace:false w) e2e) Bench.workloads;
  check_metrics "traced" (run ~trace:true Serve_mix.name) layers;
  (* a corrupted expected digest: the op meeting it fails, the run goes on *)
  Bench.with_tmp_dir (fun tmp ->
      let env = { (env ~cli ~tmp ~trace:false) with max_ops = Some 3 } in
      let e, c = (Compile_cold.setup env).order.(0) in
      let expected =
        List.map
          (fun (i, k, d) ->
            if i = e.Isax.Registry.name && k = c.Scaiev.Datasheet.core_name then
              (i, k, String.make 32 '0')
            else (i, k, d))
          env.expected
      in
      let o = Bench.run ~workload:"compile_cold" ~env:{ env with expected } ~seconds:600.0 in
      if o.correct || o.failed <> 1 then
        fail "corrupted digest: correct=%b failed=%d (want false and 1)" o.correct o.failed;
      Printf.printf "smoke: ok corrupted digest counted as one failed op\n%!");
  print_endline "smoke: all checks passed"
