(* compile_cold: one in-process caller, jobs=1. Each op compiles one
   (bundled ISAX x registry core) target from its CoreDSL source through
   Flow.compile_outputs with a fresh session and no disk store, so every
   compile layer does its full cold work and no cache, disk, daemon or
   simulator does any. The 50 targets run in a seeded order that repeats,
   and the path always measures whole passes over the grid. *)

open Common

let name = "compile_cold"

(* The per-core aggregates pinned by paper_core_golden in
   test/test_cache.ml: MD5 over every bundled ISAX (registry order) of
   name ^ (func name ^ SV)* ^ YAML. *)
let paper_core_golden =
  [
    ("ORCA", "46e53df7617a651544ed5abc3090264a");
    ("Piccolo", "4a0e19ddd852ffb8cf2f10a27ab71f06");
    ("PicoRV32", "956a3788cf0eeaa47afc4750eb150319");
    ("VexRiscv", "8a326db4713dcbf06bfe82ef764d24c1");
  ]

let expected_file = "perfbench/expected_digests.txt"

(* One target's contribution to its core's aggregate; its MD5 is the
   target's expected digest. *)
let contribution isax (o : Longnail.Flow.outputs) =
  let b = Buffer.create 8192 in
  Buffer.add_string b isax;
  List.iter
    (fun (f : Longnail.Flow.output_func) ->
      Buffer.add_string b f.of_name;
      Buffer.add_string b f.of_sv)
    o.o_funcs;
  Buffer.add_string b o.o_yaml;
  Buffer.contents b

let grid () =
  List.concat_map
    (fun (e : Isax.Registry.entry) ->
      List.map (fun (c : Scaiev.Datasheet.t) -> (e, c)) (Scaiev.Core_registry.datasheets ()))
    Isax.Registry.all

let load_expected path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ isax; core; digest ] when isax.[0] <> '#' -> Some (isax, core, digest)
         | _ -> None)

(* Fold contributions (in registry order) into each paper core's
   aggregate; [None] for a core whose contributions are incomplete. *)
let fold_paper_cores contributions =
  List.map
    (fun (core, golden) ->
      let parts =
        List.map
          (fun (e : Isax.Registry.entry) -> Hashtbl.find_opt contributions (e.name, core))
          Isax.Registry.all
      in
      if List.mem None parts then (core, golden, None)
      else (core, golden, Some (digest_hex (String.concat "" (List.filter_map Fun.id parts)))))
    paper_core_golden

type t = {
  order : (Isax.Registry.entry * Scaiev.Datasheet.t) array;
  expected : (string * string, string) Hashtbl.t;
  trace : bool;
  max_ops : int option;
  mutable ops : int;
  mutable failed : int;
  mutable lat : (int * float) list;  (** (index into [order], seconds) per checked op *)
  contributions : (string * string, string) Hashtbl.t;
  (* traced-run accumulators *)
  spans : (string, float) Hashtbl.t;
  mutable roots : Obs.span list;
  mutable alloc_fe : float;
  mutable alloc_all : float;
  mutable untraced_s : float;
  mutable traced_s : float;
}

let setup (env : env) =
  let expected = Hashtbl.create 64 in
  List.iter (fun (i, c, d) -> Hashtbl.replace expected (i, c) d) env.expected;
  let grid = grid () in
  List.iter
    (fun ((e : Isax.Registry.entry), (c : Scaiev.Datasheet.t)) ->
      if not (Hashtbl.mem expected (e.name, c.core_name)) then
        failwith (Printf.sprintf "%s has no digest for %s/%s" expected_file e.name c.core_name))
    grid;
  let order = shuffle (rng ~seed:env.seed ~salt:1) (Array.of_list grid) in
  announce_ops ~path:name ~seed:env.seed
    (Array.to_list
       (Array.map
          (fun ((e : Isax.Registry.entry), (c : Scaiev.Datasheet.t)) -> e.name ^ "/" ^ c.core_name)
          order));
  {
    order;
    expected;
    trace = env.trace;
    max_ops = env.max_ops;
    ops = 0;
    failed = 0;
    lat = [];
    contributions = Hashtbl.create 64;
    spans = Hashtbl.create 64;
    roots = [];
    alloc_fe = 0.0;
    alloc_all = 0.0;
    untraced_s = 0.0;
    traced_s = 0.0;
  }

(* One op: the CoreDSL frontend, then the whole compile, cold. Also
   returns the words the frontend allocated. *)
let compile_one ?obs ((e : Isax.Registry.entry), core) =
  let frontend () =
    let a0 = alloc_words () in
    let tu = Isax.Registry.compile e in
    (tu, alloc_words () -. a0)
  in
  let tu, fe_alloc =
    match obs with
    | None -> frontend ()
    | Some o ->
        Obs.span o "parse_typecheck" (fun so ->
            Obs.metric_int so "source_bytes" (String.length e.source);
            frontend ())
  in
  let session = Longnail.Flow.create_session () in
  (Longnail.Flow.compile_outputs (Longnail.Flow.Request.make ~session ?obs ()) core tu, fe_alloc)

(* Per-layer figures from the traced ops' span trees, as means per target. *)
let layer_metrics t =
  let n = float_of_int (max 1 (List.length t.roots)) in
  let self name = Option.value (Hashtbl.find_opt t.spans name) ~default:0.0 /. n in
  let per_target f = sum (List.map f t.roots) /. n in
  let solver k = per_target (fun r -> sum_metric r ~span:"schedule" ("solver." ^ k)) in
  let fe_ms = self "parse_typecheck" in
  let fe_bytes = per_target (fun r -> sum_metric r ~span:"parse_typecheck" "source_bytes") in
  let passes =
    Hashtbl.fold
      (fun k _ acc ->
        if String.starts_with ~prefix:"pass:" k then
          let p = String.sub k 5 (String.length k - 5) in
          m (Printf.sprintf "ir.pass.%s_ms" p) "ms" (self k) :: acc
        else acc)
      t.spans []
    |> List.sort compare
  in
  [
    m "coredsl.frontend_ms" "ms" fe_ms;
    m "coredsl.frontend_bytes_per_s" "B/s" (ratio fe_bytes (fe_ms /. 1e3));
    m "coredsl.frontend_alloc_words" "words" (t.alloc_fe /. n);
    m "ir.hlir_ms" "ms" (self "hlir");
    m "ir.lil_ms" "ms" (self "lil");
    m "ir.optimize_ms" "ms" (self "optimize");
    m "ir.ops_after_optimize" "count" (per_target (fun r -> sum_metric r ~span:"optimize" "ops_after"));
    m "analysis.verify_ms" "ms" (self "verify");
    m "analysis.netcheck_ms" "ms" (self "netcheck");
    m "sched.schedule_ms" "ms" (self "schedule");
    m "lp.resolves" "count" (solver "resolves");
    m "lp.bf_rounds" "count" (solver "bf_rounds");
    m "lp.pivots" "count" (solver "pivots");
    m "lp.bnb_nodes" "count" (solver "bnb_nodes");
    m "longnail.hwgen_ms" "ms" (self "hwgen");
    m "longnail.pipe_reg_bits" "bits" (per_target (fun r -> sum_metric r ~span:"hwgen" "pipe_reg_bits"));
    m "longnail.alloc_words_per_target" "words" (t.alloc_all /. n);
    m "rtl.emit_ms.sv" "ms" (self "sv_emit");
    m "scaiev.integration_ms" "ms" (self "adapter_gen" +. self "config_gen");
    m "obs.tracing_overhead_pct" "%" (100.0 *. (ratio t.traced_s t.untraced_s -. 1.0));
  ]
  @ passes

let op t =
  let idx = t.ops mod Array.length t.order in
  let ((e : Isax.Registry.entry), (c : Scaiev.Datasheet.t)) as target = t.order.(idx) in
  t.ops <- t.ops + 1;
  match timed (fun () -> compile_one target) with
  | (o, _), dt ->
      t.lat <- (idx, dt) :: t.lat;
      let contrib = contribution e.name o in
      if Some (digest_hex contrib) <> Hashtbl.find_opt t.expected (e.name, c.core_name) then begin
        t.failed <- t.failed + 1;
        say "perfbench: %s: %s/%s output digest differs from %s" name e.name c.core_name
          expected_file
      end
      else Hashtbl.replace t.contributions (e.name, c.core_name) contrib;
      if t.trace then begin
        (* the same target again, traced: the pair gives the tracing
           overhead, the traced tree the per-layer figures *)
        let obs = Obs.create ~name:"compile" () in
        let a0 = alloc_words () in
        let (_, fe), tdt = timed (fun () -> compile_one ~obs target) in
        t.alloc_fe <- t.alloc_fe +. fe;
        t.alloc_all <- t.alloc_all +. (alloc_words () -. a0);
        Obs.finish obs;
        t.untraced_s <- t.untraced_s +. dt;
        t.traced_s <- t.traced_s +. tdt;
        t.roots <- Obs.root obs :: t.roots;
        add_self_times t.spans (Obs.root obs)
      end
  | exception ex ->
      t.failed <- t.failed + 1;
      say "perfbench: %s: %s/%s raised %s" name e.name c.core_name (Printexc.to_string ex)

let work t ~until = work_until ~until ~max_ops:t.max_ops ~count:(fun () -> t.ops) (fun () -> op t)

let finish t =
  (* end on a whole pass over the grid, so every run weighs each target alike *)
  while t.ops mod Array.length t.order <> 0 && below_max t.max_ops t.ops do
    op t
  done;
  let fold_failures =
    List.length
      (List.filter
         (fun (core, golden, got) ->
           match got with
           | Some d when d <> golden ->
               say "perfbench: %s: %s aggregate %s <> paper_core_golden %s" name core d golden;
               true
           | _ -> false)
         (fold_paper_cores t.contributions))
  in
  (* each target is an op class *)
  let lat = at_class_time t.lat in
  {
    attempted = t.ops;
    failed = t.failed + fold_failures;
    e2e =
      [
        m "compile_targets_per_s" "1/s" (ratio (float_of_int (List.length lat)) (sum lat));
        m "compile_target_ms_p50" "ms" (1e3 *. median lat);
        m "compile_target_ms_p99" "ms" (1e3 *. quantile 0.99 lat);
      ];
    layer = (if t.trace then layer_metrics t else []);
  }

let teardown (_ : t) = ()

(* Regenerate the expected-digest list: compile the whole grid, check the
   paper-core aggregates against paper_core_golden, print the list. *)
let write_expected () =
  let contributions = Hashtbl.create 64 in
  let lines =
    List.map
      (fun (((e : Isax.Registry.entry), (c : Scaiev.Datasheet.t)) as target) ->
        let contrib = contribution e.name (fst (compile_one target)) in
        Hashtbl.replace contributions (e.name, c.core_name) contrib;
        Printf.sprintf "%s %s %s" e.name c.core_name (digest_hex contrib))
      (grid ())
  in
  List.iter
    (fun (core, golden, got) ->
      if got <> Some golden then failwith (core ^ " aggregate differs from paper_core_golden"))
    (fold_paper_cores contributions);
  print_endline "# MD5 of each target's isax ^ (func ^ SV)* ^ YAML; regenerate with";
  print_endline "# _build/default/perfbench/main.exe --write-digests (checks paper_core_golden)";
  List.iter print_endline lines
