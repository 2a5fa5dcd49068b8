(* Automated design-space exploration (the Section 7 outlook feature).

   Area minimization and performance metrics conflict, so for one ISAX on
   one core we sweep the knobs Longnail exposes —
   - the scheduler (lifetime-minimizing ILP vs. plain ASAP),
   - the target cycle time handed to chain breaking (scheduling for a
     slower clock packs stages fuller: fewer pipeline registers, lower
     fmax; scheduling for a faster clock spreads the logic),
   - the scheduling delay model (the paper's uniform delays vs. the
     physical width-aware model),
   and report the Pareto-optimal trade-off points over (area, frequency,
   instruction latency).

   The sweep runs through a Flow compilation session, so only the
   sched->hwgen tail re-runs per grid point: the front-end and HLIR/LIL
   passes execute exactly once per functionality across the whole grid,
   and repeating a sweep in the same session replays entirely from
   cache (including the injected [measure], memoized per target key). *)

type point = {
  dp_label : string;
  dp_scheduler : Sched_build.scheduler;
  dp_cycle_factor : float;  (* multiplier on the core's base period *)
  dp_physical : bool;
  dp_area_pct : float;
  dp_freq_mhz : float;
  dp_latency : int;  (* last interface stage = instruction latency proxy *)
  dp_pipe_bits : int;
  dp_pareto : bool;
}

(* p dominates q if no worse on all axes and better on one *)
let dominates p q =
  p.dp_area_pct <= q.dp_area_pct
  && p.dp_freq_mhz >= q.dp_freq_mhz
  && p.dp_latency <= q.dp_latency
  && (p.dp_area_pct < q.dp_area_pct || p.dp_freq_mhz > q.dp_freq_mhz
    || p.dp_latency < q.dp_latency)

let mark_pareto points =
  List.map
    (fun p -> { p with dp_pareto = not (List.exists (fun q -> dominates q p) points) })
    points

(* A sweep session: the shared Flow session plus a memo for the injected
   measurement (area/frequency analysis can dominate a warm sweep's cost,
   so it is cached under the same target key as the compile itself). *)
type sweep_session = {
  ss_flow : Flow.session;
  ss_measure : (float * float) Cache.Store.t;
}

let sweep_session ?session () =
  {
    ss_flow = (match session with Some s -> s | None -> Flow.create_session ());
    ss_measure = Cache.Store.create ~name:"measure" ();
  }

let config_label (factor, scheduler, physical) =
  Printf.sprintf "%s/ct*%.2f/%s"
    (match scheduler with Sched_build.Ilp -> "ilp" | Sched_build.Asap -> "asap")
    factor
    (if physical then "phys" else "unif")

(* [measure] converts a compile into (area %, fmax); injected so that the
   asic library (which depends on this one) can supply the real flow.

   With [?request] carrying [jobs > 1] the grid points fan out over
   worker domains: the shared IR artifacts are warmed once on the
   calling domain, each point runs the sched->hwgen tail in a task, and
   results are collected by index, so the point list (and the Pareto
   marking over it) is identical to a sequential sweep. *)
let explore ?(cycle_factors = [ 0.75; 1.0; 1.5; 2.0 ]) ?sweep ?request
    ~(measure : Flow.compiled -> float * float) (core : Scaiev.Datasheet.t)
    (tu : Coredsl.Tast.tunit) : point list =
  let r = Option.value request ~default:Flow.Request.default in
  let jobs = r.Flow.Request.jobs in
  let obs = r.Flow.Request.obs in
  let ss =
    match sweep with
    | Some ss ->
        if Option.is_some r.Flow.Request.session then
          Diag.fatal
            (Diag.make ~code:"E0902"
               "conflicting compile options: ?sweep given together with a request that \
                carries its own session"
               ~notes:[ "pass the flow session inside the sweep_session only" ]);
        ss
    | None -> sweep_session ?session:r.Flow.Request.session ()
  in
  let base_ct = Scaiev.Datasheet.cycle_time_ns core in
  let configs =
    List.concat_map
      (fun factor ->
        List.concat_map
          (fun scheduler ->
            List.map (fun physical -> (factor, scheduler, physical)) [ false; true ])
          [ Sched_build.Ilp; Sched_build.Asap ])
      cycle_factors
  in
  let eval_point ?obs ((factor, scheduler, physical) as config) =
    let cycle_time = base_ct *. factor in
    let delay =
      if physical then Delay_model.Physical else Delay_model.Uniform (cycle_time /. 14.0)
    in
    let knobs = Flow.knobs ~scheduler ~delay ~cycle_time () in
    let req = Flow.Request.make ~knobs ~session:ss.ss_flow ?obs () in
    match Flow.compile_request req core tu with
    | exception Diag.Fatal _ -> None
    | exception _ -> None
    | c ->
        let area_pct, freq =
          Cache.Store.find_or_add ss.ss_measure ?obs
            (Flow.target_key ss.ss_flow knobs core tu) (fun () -> measure c)
        in
        let latency =
          List.fold_left
            (fun acc (f : Flow.compiled_functionality) -> max acc f.cf_hw.Hwgen.max_stage)
            0 c.funcs
        in
        let pipe_bits =
          List.fold_left
            (fun acc (f : Flow.compiled_functionality) -> acc + f.cf_hw.Hwgen.pipe_reg_bits)
            0 c.funcs
        in
        Some
          {
            dp_label = config_label config;
            dp_scheduler = scheduler;
            dp_cycle_factor = factor;
            dp_physical = physical;
            dp_area_pct = area_pct;
            dp_freq_mhz = freq;
            dp_latency = latency;
            dp_pipe_bits = pipe_bits;
            dp_pareto = false;
          }
  in
  let indexed = List.mapi (fun i config -> (i, config)) configs in
  let slots = Array.make (List.length configs) None in
  (if jobs <= 1 then
     List.iter (fun (i, config) -> slots.(i) <- eval_point ?obs config) indexed
   else begin
     (* warm the shared frontend/IR artifacts on this domain, then fan
        the per-point sched->hwgen tails out over the worker pool *)
     Flow.warm_ir ss.ss_flow tu;
     Obs.span_opt obs "parallel_explore" @@ fun pobs ->
     Obs.metric_int_opt pobs "par.workers" (max 1 (min jobs (List.length configs)));
     Obs.metric_int_opt pobs "par.points" (List.length configs);
     let task (i, config) () =
       let tobs =
         match pobs with
         | None -> None
         | Some _ -> Some (Obs.create ~name:("dse:" ^ config_label config) ())
       in
       let p = eval_point ?obs:tobs config in
       Option.iter Obs.finish tobs;
       ((i, p), Option.map Obs.root tobs)
     in
     let results = Par.run ~jobs (List.map task indexed) in
     (match pobs with
     | None -> ()
     | Some p -> List.iter (fun (_, sp) -> Option.iter (Obs.attach p) sp) results);
     List.iter (fun ((i, p), _) -> slots.(i) <- p) results
   end);
  let points = List.filter_map Fun.id (Array.to_list slots) in
  (* deduplicate identical outcomes to keep the report readable *)
  let distinct =
    List.fold_left
      (fun acc p ->
        if
          List.exists
            (fun q ->
              q.dp_area_pct = p.dp_area_pct && q.dp_freq_mhz = p.dp_freq_mhz
              && q.dp_latency = p.dp_latency)
            acc
        then acc
        else p :: acc)
      [] points
  in
  mark_pareto (List.rev distinct)
