(* The parallel compilation driver: Par pool semantics, session
   thread-safety under concurrent lookups, and the determinism contract
   of Flow.compile_many / Dse.explore — parallel runs must produce the
   exact artifact bytes, point lists and (merged) profile tree shapes of
   a sequential run. Domains are real even on a single-core host, so
   these tests exercise true multi-domain interleavings everywhere. *)

let jobs = 4

(* ---- Par pool semantics ---- *)

let test_run_ordering () =
  let tasks = List.init 23 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in task order"
    (List.init 23 (fun i -> i * i))
    (Par.run ~jobs tasks);
  Alcotest.(check (list int))
    "map in input order"
    (List.init 23 (fun i -> i + 1))
    (Par.map ~jobs (fun x -> x + 1) (List.init 23 Fun.id))

let test_run_zero_and_one () =
  Alcotest.(check (list int)) "zero tasks" [] (Par.run ~jobs []);
  Alcotest.(check (list int)) "one task" [ 7 ] (Par.run ~jobs [ (fun () -> 7) ]);
  Alcotest.(check (list int))
    "jobs=1 runs inline" [ 1; 2 ]
    (Par.run ~jobs:1 [ (fun () -> 1); (fun () -> 2) ])

exception Boom of int

let test_exception_propagation () =
  (* several tasks fail: the lowest-index failure must surface, like a
     sequential left-to-right run *)
  let tasks =
    List.init 16 (fun i () -> if i = 3 || i = 11 then raise (Boom i) else i)
  in
  (match Par.run ~jobs tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest-index failure" 3 i);
  (* the pool survives a failed batch: a fresh run still works *)
  Alcotest.(check (list int)) "pool reusable" [ 0; 1 ] (Par.run ~jobs [ (fun () -> 0); (fun () -> 1) ])

let test_nested_rejection () =
  (* a parallel region inside a worker must be rejected, not deadlock *)
  let saw_nested = ref false in
  let tasks =
    List.init 4 (fun i () ->
        if i = 0 then (
          (* two inner tasks: a singleton would clamp to jobs=1 and run
             inline, which is the legal sequential fallback *)
          match Par.run ~jobs:2 [ (fun () -> 0); (fun () -> 1) ] with
          | _ -> ()
          | exception Par.Nested_parallelism -> saw_nested := true);
        i)
  in
  (match Par.run ~jobs:2 tasks with
  | _ -> ()
  | exception Par.Nested_parallelism -> ());
  Alcotest.(check bool) "nested jobs>1 rejected in worker" true !saw_nested;
  (* jobs=1 must compose inside a worker (inline sequential fallback) *)
  let inner =
    Par.run ~jobs:2 [ (fun () -> Par.run ~jobs:1 [ (fun () -> 42) ]); (fun () -> [ 0 ]) ]
  in
  Alcotest.(check (list (list int))) "jobs=1 nests inline" [ [ 42 ]; [ 0 ] ] inner;
  Alcotest.(check bool) "not in worker outside a region" false (Par.in_worker ());
  Alcotest.(check bool) "workers available" true (Par.available_workers () >= 1)

(* ---- concurrent sessions: single-flight stores ---- *)

let test_concurrent_session_single_flight () =
  (* the same target compiled from 4 workers at once: exactly one domain
     computes and stores it, the rest wait and count as hits *)
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let core = Scaiev.Datasheet.vexriscv in
  let session = Longnail.Flow.create_session () in
  Longnail.Flow.warm_ir session tu;
  let before = Longnail.Flow.session_stats session in
  let compiled =
    Par.run ~jobs
      (List.init jobs (fun _ () ->
           Longnail.Flow.compile
             ~request:(Longnail.Flow.Request.make ~session ())
             core tu))
  in
  Alcotest.(check int) "all workers returned" jobs (List.length compiled);
  (match compiled with
  | first :: rest ->
      List.iter
        (fun (c : Longnail.Flow.compiled) ->
          Alcotest.(check bool) "single-flight shares the value" true (c == first))
        rest
  | [] -> assert false);
  let delta name =
    let st l = List.assoc name l in
    let b = st before and a = st (Longnail.Flow.session_stats session) in
    Cache.Store.
      ( a.hits - b.hits,
        a.misses - b.misses,
        a.stores - b.stores )
  in
  let hits, misses, stores = delta "target" in
  Alcotest.(check int) "exactly one target miss" 1 misses;
  Alcotest.(check int) "exactly one target store" 1 stores;
  Alcotest.(check int) "other workers hit" (jobs - 1) hits

let test_concurrent_distinct_keys () =
  (* distinct targets from concurrent workers: no cross-serialization
     bug loses a store, every artifact lands *)
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let session = Longnail.Flow.create_session () in
  let cores = Scaiev.Core_registry.datasheets () in
  let compiled =
    let request = Longnail.Flow.Request.make ~session () in
    Par.run ~jobs (List.map (fun core () -> Longnail.Flow.compile ~request core tu) cores)
  in
  List.iter2
    (fun (core : Scaiev.Datasheet.t) (c : Longnail.Flow.compiled) ->
      Alcotest.(check string) "compiled for its own core" core.core_name
        c.core.Scaiev.Datasheet.core_name)
    cores compiled;
  let st = List.assoc "target" (Longnail.Flow.session_stats session) in
  Alcotest.(check int) "one store per core" (List.length cores) st.Cache.Store.stores

(* ---- parallel == sequential: artifact bytes ---- *)

let artifact_bytes (c : Longnail.Flow.compiled) =
  String.concat "\x00"
    (List.map (fun (f : Longnail.Flow.compiled_functionality) -> f.cf_name ^ "\x02" ^ f.cf_sv) c.funcs)
  ^ "\x01" ^ c.config_yaml

let test_parallel_equals_sequential () =
  (* every bundled ISAX x every core, jobs=4 vs jobs=1: identical SV and
     YAML bytes, in identical order *)
  let targets =
    List.concat_map
      (fun (core : Scaiev.Datasheet.t) ->
        List.map
          (fun (e : Isax.Registry.entry) -> (core, Isax.Registry.compile e))
          Isax.Registry.all)
      (Scaiev.Core_registry.datasheets ())
  in
  let run jobs =
    let session = Longnail.Flow.create_session () in
    let request = Longnail.Flow.Request.make ~session ~jobs () in
    List.map artifact_bytes (Longnail.Flow.compile_many ~request targets)
  in
  let seq = run 1 and par = run jobs in
  Alcotest.(check int) "same target count" (List.length seq) (List.length par);
  List.iteri
    (fun i (s, p) ->
      if s <> p then Alcotest.failf "artifact bytes of target %d diverge at jobs=%d" i jobs)
    (List.combine seq par);
  Alcotest.(check bool) "byte-identical grid" true (seq = par)

(* ---- parallel == sequential: merged profile trees ---- *)

let rec span_shape (sp : Obs.span) =
  (* name, metric names, children shapes — everything except wall times *)
  Printf.sprintf "%s(%s)[%s]" sp.Obs.sp_name
    (String.concat "," (List.map fst (Obs.metrics sp)))
    (String.concat ";" (List.map span_shape (Obs.children sp)))

let test_obs_tree_determinism () =
  (* distinct targets at jobs=4: the merged span tree has one target:*
     child per target, in task order, with the same shape as jobs=1 *)
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let targets = List.map (fun core -> (core, tu)) (Scaiev.Core_registry.datasheets ()) in
  let run jobs =
    let obs = Obs.create ~name:"compile" () in
    let session = Longnail.Flow.create_session () in
    Longnail.Flow.warm_ir session tu;
    let request = Longnail.Flow.Request.make ~session ~obs ~jobs () in
    ignore (Longnail.Flow.compile_many ~request targets);
    Obs.finish obs;
    Obs.root obs
  in
  let seq = run 1 and par = run jobs in
  let pc sp =
    match Obs.find_span sp "parallel_compile" with
    | Some s -> s
    | None -> Alcotest.fail "missing parallel_compile span"
  in
  let child_names sp = List.map (fun (s : Obs.span) -> s.Obs.sp_name) (Obs.children (pc sp)) in
  Alcotest.(check (list string))
    "one target:CORE child per target, in task order"
    (List.map (fun ((c : Scaiev.Datasheet.t), _) -> "target:" ^ c.core_name) targets)
    (child_names par);
  Alcotest.(check (list string)) "same children as sequential" (child_names seq)
    (child_names par);
  Alcotest.(check string) "identical merged tree shape" (span_shape seq) (span_shape par);
  Alcotest.(check (option int))
    "par.workers recorded"
    (Some (min jobs (List.length targets)))
    (Obs.get_int (pc par) "par.workers");
  (* a repeated parallel run has the same shape as itself (no scheduling
     dependence) *)
  Alcotest.(check string) "parallel shape reproducible" (span_shape (run jobs))
    (span_shape (run jobs))

(* ---- parallel == sequential: Dse.explore ---- *)

let test_dse_parallel_equals_sequential () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let core = Scaiev.Datasheet.vexriscv in
  let measure (c : Longnail.Flow.compiled) =
    ( float_of_int
        (List.fold_left
           (fun a (f : Longnail.Flow.compiled_functionality) -> a + f.cf_hw.Longnail.Hwgen.pipe_reg_bits)
           0 c.funcs),
      440.0 )
  in
  let seq = Longnail.Dse.explore ~measure core tu in
  let par =
    Longnail.Dse.explore ~request:(Longnail.Flow.Request.make ~jobs ()) ~measure core tu
  in
  Alcotest.(check bool) "identical point lists" true (seq = par);
  Alcotest.(check bool) "non-empty sweep" true (seq <> [])

(* ---- the Request API: E0902 conflicts ---- *)

let check_e0902 what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected E0902" what
  | exception Diag.Fatal [ d ] -> Alcotest.(check string) what "E0902" d.Diag.code
  | exception Diag.Fatal _ -> Alcotest.failf "%s: expected a single diagnostic" what

let test_request_conflicts () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let core = Scaiev.Datasheet.vexriscv in
  check_e0902 "jobs < 1" (fun () -> Longnail.Flow.Request.make ~jobs:0 ());
  check_e0902 "sweep + request session" (fun () ->
      Longnail.Dse.explore
        ~sweep:(Longnail.Dse.sweep_session ())
        ~request:(Longnail.Flow.Request.make ~session:(Longnail.Flow.create_session ()) ())
        ~measure:(fun _ -> (0.0, 0.0))
        core tu);
  (* legal combinations stay legal: a knobs record composes with
     session/obs/jobs *)
  let session = Longnail.Flow.create_session () in
  let obs = Obs.create () in
  let knobs = Longnail.Flow.knobs ~scheduler:Longnail.Sched_build.Ilp () in
  ignore
    (Longnail.Flow.compile ~request:(Longnail.Flow.Request.make ~knobs ~session ~obs ()) core tu);
  ignore
    (Longnail.Flow.compile
       ~request:(Longnail.Flow.Request.make ~knobs ~session ~obs ~jobs:2 ())
       core tu)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "result ordering" `Quick test_run_ordering;
          Alcotest.test_case "zero and one task" `Quick test_run_zero_and_one;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested-region rejection" `Quick test_nested_rejection;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "single-flight same target" `Quick
            test_concurrent_session_single_flight;
          Alcotest.test_case "distinct keys concurrently" `Quick test_concurrent_distinct_keys;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "artifact bytes (grid, jobs=4)" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "merged obs trees" `Quick test_obs_tree_determinism;
          Alcotest.test_case "dse sweep" `Quick test_dse_parallel_equals_sequential;
        ] );
      ( "request",
        [ Alcotest.test_case "E0902 conflicts" `Quick test_request_conflicts ] );
    ]
