(** Automated design-space exploration (the Section 7 outlook feature).

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

   The sweep runs through a {!Flow.session}, so only the sched->hwgen
   tail re-runs per grid point: front-end and HLIR/LIL passes execute
   exactly once per functionality across the whole grid, and repeating a
   sweep in the same {!sweep_session} replays entirely from cache —
   including the injected [measure], memoized per {!Flow.target_key}. *)

type point = {
  dp_label : string;
  dp_scheduler : Sched_build.scheduler;
  dp_cycle_factor : float;
  dp_physical : bool;
  dp_area_pct : float;
  dp_freq_mhz : float;
  dp_latency : int;
  dp_pipe_bits : int;
  dp_pareto : bool;
}

val dominates : point -> point -> bool
(** [dominates p q]: no worse on every axis and strictly better on at
    least one — equal points never dominate each other. *)

val mark_pareto : point list -> point list

(** A sweep session: the shared compilation session plus a memo for the
    injected measurement, which can dominate a warm sweep's cost. *)
type sweep_session = {
  ss_flow : Flow.session;
  ss_measure : (float * float) Cache.Store.t;
}

val sweep_session : ?session:Flow.session -> unit -> sweep_session

val explore :
  ?cycle_factors:float list ->
  ?sweep:sweep_session ->
  ?request:Flow.Request.t ->
  measure:(Flow.compiled -> float * float) ->
  Scaiev.Datasheet.t -> Coredsl.Tast.tunit -> point list
(** Grid points whose compile raises {!Diag.Fatal} (e.g. infeasible
    schedules) are skipped; identical outcomes are deduplicated.

    [?request] supplies the worker count ([Request.jobs]), the profiling
    scope and — when no [?sweep] is given — the flow session to wrap in a
    fresh sweep session. Passing [?sweep] together with a request that
    carries its own session raises E0902. With [jobs > 1] the grid fans
    out over worker domains after warming the shared IR artifacts;
    results are collected by grid index, so the returned point list is
    identical for every job count. *)
