(* Tests for the observability substrate: span nesting and timing,
   counters, metric overwrite semantics, JSON rendering (including string
   escaping and non-finite protection), schema extraction, and validation
   — the contract the CI gate and the bench baseline writer rely on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_strs = Alcotest.(check (list string))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_span_nesting () =
  let s = Obs.create ~name:"top" () in
  Obs.span s "a" (fun sa ->
      Obs.span sa "a1" (fun _ -> ());
      Obs.span sa "a2" (fun _ -> ()));
  Obs.span s "b" (fun _ -> ());
  Obs.finish s;
  let r = Obs.root s in
  check_str "root name" "top" r.Obs.sp_name;
  check_strs "children in order" [ "a"; "b" ]
    (List.map (fun c -> c.Obs.sp_name) (Obs.children r));
  let a = Option.get (Obs.find_span r "a") in
  check_strs "grandchildren in order" [ "a1"; "a2" ]
    (List.map (fun c -> c.Obs.sp_name) (Obs.children a));
  check_int "pre-order count" 5 (List.length (Obs.all_spans r))

let test_span_timing () =
  let s = Obs.create () in
  Obs.span s "work" (fun _ ->
      (* a measurable amount of work *)
      let acc = ref 0 in
      for i = 1 to 1_000_000 do
        acc := !acc + i
      done;
      ignore !acc);
  Obs.finish s;
  let r = Obs.root s in
  let w = Option.get (Obs.find_span r "work") in
  check_bool "child elapsed positive" true (w.Obs.sp_elapsed_ns > 0.0);
  check_bool "root covers child" true (r.Obs.sp_elapsed_ns >= w.Obs.sp_elapsed_ns)

let test_span_recorded_on_raise () =
  let s = Obs.create () in
  (try Obs.span s "boom" (fun sb -> Obs.metric_int sb "partial" 1; failwith "x")
   with Failure _ -> ());
  let b = Option.get (Obs.find_span (Obs.root s) "boom") in
  check_int "metric survives the raise" 1 (Option.get (Obs.get_int b "partial"));
  check_bool "elapsed was still closed" true (b.Obs.sp_elapsed_ns >= 0.0)

let test_counters_and_overwrite () =
  let s = Obs.create () in
  Obs.incr s "n" ();
  Obs.incr s "n" ~by:4 ();
  Obs.metric_int s "x" 1;
  Obs.metric_int s "x" 2;
  Obs.metric_str s "mode" "ilp";
  let r = Obs.root s in
  check_int "counter accumulates" 5 (Option.get (Obs.get_int r "n"));
  check_int "set overwrites" 2 (Option.get (Obs.get_int r "x"));
  check_str "string metric" "ilp" (Option.get (Obs.get_str r "mode"));
  check_int "no duplicate keys" 3 (List.length (Obs.metrics r))

let test_metric_insertion_order () =
  let s = Obs.create () in
  Obs.metric_int s "b" 1;
  Obs.metric_int s "a" 2;
  Obs.metric_int s "b" 3;
  (* overwrite moves the key to the end: last write wins in both value
     and position, so JSON output order is deterministic *)
  check_strs "order" [ "a"; "b" ] (List.map fst (Obs.metrics (Obs.root s)))

let test_json_rendering () =
  let s = Obs.create ~name:"root" () in
  Obs.span s "stage" (fun st ->
      Obs.metric_int st "ops" 42;
      Obs.metric_float st "ratio" 0.5;
      Obs.metric_str st "note" "a \"quoted\"\nline");
  Obs.finish s;
  let j = Obs.to_json (Obs.root s) in
  let contains needle = contains j needle in
  check_bool "root name" true (contains "\"name\":\"root\"");
  check_bool "child span" true (contains "\"name\":\"stage\"");
  check_bool "int metric" true (contains "\"ops\":42");
  check_bool "float metric" true (contains "\"ratio\":0.5");
  check_bool "escaped quote" true (contains "\\\"quoted\\\"");
  check_bool "escaped newline" true (contains "\\n");
  check_bool "elapsed field" true (contains "\"elapsed_ms\":");
  (* structural sanity: braces and brackets balance *)
  let bal =
    String.fold_left
      (fun (d, ok) c ->
        let d = match c with '{' | '[' -> d + 1 | '}' | ']' -> d - 1 | _ -> d in
        (d, ok && d >= 0))
      (0, true) j
  in
  check_bool "balanced" true (fst bal = 0 && snd bal);
  (* and it parses with the shared codec, carrying each span's exact
     elapsed time (full precision, not a fixed number of decimals) *)
  let root = Obs.root s in
  let elapsed_ms sp = Some (sp.Obs.sp_elapsed_ns /. 1e6) in
  match Json.parse j with
  | Error m -> Alcotest.failf "Obs.to_json output does not parse: %s" m
  | Ok v -> (
      check_bool "elapsed_ms exact" true
        (Json.get_float (Json.member "elapsed_ms" v) = elapsed_ms root);
      match Json.member "children" v with
      | Json.Arr [ c ] ->
          check_bool "child elapsed_ms exact" true
            (Json.get_float (Json.member "elapsed_ms" c)
            = elapsed_ms (List.hd (Obs.children root)));
          check_bool "string metric decoded" true
            (Json.get_string (Json.member "note" (Json.member "metrics" c))
            = Some "a \"quoted\"\nline")
      | _ -> Alcotest.fail "expected one child span")

let test_json_no_nonfinite () =
  (* the JSON renderer never emits nan/inf tokens: non-finite floats
     become the sentinel 0 (and [validate] rejects them upstream) *)
  let s = Obs.create () in
  Obs.metric_float s "bad" Float.nan;
  Obs.metric_float s "pos" Float.infinity;
  let j = Obs.to_json (Obs.root s) in
  check_bool "no nan token" true (not (contains (String.lowercase_ascii j) "nan"));
  check_bool "no inf token" true (not (contains (String.lowercase_ascii j) "inf"));
  check_bool "nan rendered as 0" true (contains j "\"bad\":0")

let test_validate () =
  let s = Obs.create () in
  Obs.metric_int s "fine" 1;
  Obs.validate (Obs.root s);
  let s2 = Obs.create () in
  Obs.metric_float s2 "bad" Float.nan;
  check_bool "nan rejected" true
    (try
       Obs.validate (Obs.root s2);
       false
     with Obs.Invalid_metrics _ -> true);
  let s3 = Obs.create () in
  Obs.metric_int s3 "" 1;
  check_bool "empty key rejected" true
    (try
       Obs.validate (Obs.root s3);
       false
     with Obs.Invalid_metrics _ -> true)

let test_schema () =
  let s = Obs.create ~name:"compile" () in
  Obs.span s "func:DOTP" (fun sf ->
      Obs.metric_int sf "ops" 1;
      Obs.span sf "hlir" (fun sh -> Obs.metric_int sh "ops" 2));
  Obs.span s "func:SQRT" (fun sf -> Obs.metric_int sf "ops" 3);
  let sch = Obs.schema (Obs.root s) in
  (* instance-specific names collapse to func:*, entries sorted + distinct *)
  check_strs "schema content"
    (List.sort compare
       [ "span compile"; "span func:*"; "span hlir"; "metric func:*.ops"; "metric hlir.ops" ])
    sch

let test_generic_name () =
  check_str "collapse" "func:*" (Obs.generic_name "func:DOTP");
  check_str "collapse pass" "pass:*" (Obs.generic_name "pass:cse");
  check_str "plain stays" "hlir" (Obs.generic_name "hlir")

let test_pretty () =
  let s = Obs.create ~name:"compile" () in
  Obs.span s "stage" (fun st -> Obs.metric_int st "ops" 7);
  Obs.finish s;
  let p = Obs.to_pretty (Obs.root s) in
  check_bool "mentions span" true (contains p "stage");
  check_bool "mentions metric" true (contains p "ops=7")

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "timing" `Quick test_span_timing;
          Alcotest.test_case "recorded on raise" `Quick test_span_recorded_on_raise;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and overwrite" `Quick test_counters_and_overwrite;
          Alcotest.test_case "insertion order" `Quick test_metric_insertion_order;
        ] );
      ( "render",
        [
          Alcotest.test_case "json" `Quick test_json_rendering;
          Alcotest.test_case "json non-finite" `Quick test_json_no_nonfinite;
          Alcotest.test_case "pretty" `Quick test_pretty;
        ] );
      ( "contract",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "generic names" `Quick test_generic_name;
        ] );
    ]
