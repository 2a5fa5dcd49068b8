(* One benchmark run: set up all four paths (five times, for a median
   set-up time), measure the named workload's path for two fifths of the
   run's seconds and each other path for a fifth, interleaved, check
   every output, and collect the metrics. The run's private directory,
   and with it the serve daemon, is torn down on every exit path. *)

open Common

(* A set-up path: [work] runs its ops until a deadline, [finish] checks
   the outputs and computes the metrics, [teardown] releases it. *)
type instance = {
  work : until:int64 -> unit;
  finish : unit -> result;
  teardown : unit -> unit;
  daemon_rss : unit -> float option;
}

type path = { name : string; setup : env -> instance }

let path (type s) name (setup : env -> s) (work : s -> until:int64 -> unit) (finish : s -> result)
    (teardown : s -> unit) ?(daemon_rss : (s -> float) option) () =
  {
    name;
    setup =
      (fun env ->
        let s = setup env in
        {
          work = work s;
          finish = (fun () -> finish s);
          teardown = (fun () -> teardown s);
          daemon_rss = (fun () -> Option.map (fun f -> f s) daemon_rss);
        });
  }

let paths =
  Compile_cold.
    [
      path name setup work finish teardown ();
    ]
  @ Cli_store.[ path name setup work finish teardown () ]
  @ Serve_mix.[ path name setup work finish teardown ~daemon_rss:peak_rss_mb () ]
  @ Program_run.[ path name setup work finish teardown () ]

(* The named workload's path gets the larger share of a run. Each run
   measures every path, so two workloads cover every layer: the shared
   host's speed drifts over minutes, and fewer, longer runs ride it out. *)
let workloads = [ Compile_cold.name; Serve_mix.name ]
let setup_repeats = 5

type outcome = { correct : bool; attempted : int; failed : int; metrics : metric list }

(* Set up every path in a fresh sub-directory; on failure, tear down what
   was already set up before re-raising. *)
let setup_all env sub =
  let env = { env with tmp = Filename.concat env.tmp sub } in
  Unix.mkdir env.tmp 0o755;
  let done_ = ref [] in
  match List.iter (fun p -> done_ := (p.name, p.setup env) :: !done_) paths with
  | () -> List.rev !done_
  | exception ex ->
      List.iter (fun (_, i) -> try i.teardown () with _ -> ()) !done_;
      raise ex

let slice = 0.5

let run ~workload ~(env : env) ~seconds =
  if not (List.mem workload workloads) then
    invalid_arg (Printf.sprintf "unknown workload %s (one of %s)" workload (String.concat ", " workloads));
  let live = ref [] in
  let teardown_live () =
    List.iter (fun (_, i) -> try i.teardown () with _ -> ()) !live;
    live := []
  in
  Fun.protect ~finally:teardown_live (fun () ->
      let setup_s =
        List.init setup_repeats (fun k ->
            teardown_live ();
            (* the last set-up's garbage is not this one's cost *)
            Gc.compact ();
            let insts, s = timed (fun () -> setup_all env (Printf.sprintf "setup%d" k)) in
            live := insts;
            s)
      in
      (* Time-sliced: rounds of [slice]-second turns, two for the named
         workload's path and one for each other path, so every path samples
         the whole run (and any drift in the host's speed) alike. *)
      let home = List.assoc workload !live in
      let round =
        match List.filter (fun (n, _) -> n <> workload) !live |> List.map snd with
        | [ a; b; c ] -> [ home; a; b; home; c ]
        | others -> home :: others
      in
      Gc.compact ();
      let t0 = now_ns () in
      let slice_ns = Int64.of_float (slice *. 1e9) in
      (match env.max_ops with
      | Some _ -> List.iter (fun (_, i) -> i.work ~until:Int64.max_int) !live
      | None ->
          while since_s t0 < seconds do
            List.iter (fun i -> i.work ~until:(Int64.add (now_ns ()) slice_ns)) round
          done);
      (* the peak of the timed run, before the checks' in-process
         reference compiles *)
      let rss =
        match home.daemon_rss () with Some mb -> mb | None -> vm_hwm_mb (Unix.getpid ())
      in
      let results = List.map (fun (_, i) -> i.finish ()) !live in
      let layer = if env.trace then Layers.all env.tmp else [] in
      let metrics =
        if env.trace then List.concat_map (fun r -> r.layer) results @ layer
        else
          m "setup_s" "s" (median setup_s)
          :: m "peak_rss_mb" "MB" rss
          :: List.concat_map (fun r -> r.e2e) results
      in
      let attempted = List.fold_left (fun a (r : result) -> a + r.attempted) 0 results in
      let failed = List.fold_left (fun a (r : result) -> a + r.failed) 0 results in
      let finite = List.for_all (fun x -> Float.is_finite x.m_value) metrics in
      List.iter
        (fun x -> if not (Float.is_finite x.m_value) then say "perfbench: metric %s is not finite" x.m_name)
        metrics;
      { correct = failed = 0 && finite; attempted; failed; metrics })

let to_json o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.m_name,
                    Json.Obj
                      [
                        (* a non-finite value is reported as 0 (and the
                           run as incorrect) to keep the line valid JSON *)
                        ("value", Json.Num (if Float.is_finite x.m_value then x.m_value else 0.0));
                        ("unit", Json.Str x.m_unit);
                      ] ))
                o.metrics) );
       ])

(* The run's private directory under the working directory; relative, so
   the daemon's socket path stays short wherever the checkout lives. *)
let with_tmp_dir f =
  let root = ".perfbench_tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "run%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)
