(** The end-to-end Longnail flow (Figure 9 of the paper), organized as a
    {e compilation session} over content-addressed stage artifacts:

    {v
    CoreDSL source
      -> typed AST                     (lib/coredsl)    [frontend artifact]
      -> high-level IR, Figure 5b      (Ir.Hlir)        ]
      -> lil CDFG, Figure 5c           (Ir.Lil+Passes)  ] [IR artifact]
      -> LongnailProblem + schedule    (Sched_build)    ]
      -> RTL netlist, Fig 5d           (Hwgen)          ] [sched artifact]
      -> SystemVerilog / Verilog-2001  (Rtl.Backend)    ]
      -> SCAIE-V configuration, Fig 8  (Config_gen)     ] [target artifact]
    v}

    Artifact granularity (see docs/CACHING.md for the key grammar):
    the frontend artifact is keyed per source; the IR artifact per
    functionality (core-independent — a unit compiled for five cores
    lowers and optimizes each instruction once); the sched artifact per
    functionality x core x scheduling knobs; the target artifact per
    unit x core x knobs including hazard handling and the emission
    backend. Hazard handling only affects the SCAIE-V adapter and the
    backend only the HDL text, so the w/ and w/o-scoreboard ablation and
    an SV/Verilog-2001 switch share every schedule and netlist.

    Only the ISAX instructions (those not part of the RV32I base set) and
    always-blocks are synthesized; base instructions are implemented by
    the host core itself. *)

(** Every flow failure is raised as {!Diag.Fatal}. Stage exceptions that
    already carry a {!Diag.t} ({!Ir.Hlir.Lower_error}, {!Ir.Lil.Lil_error},
    {!Sched_build.Build_error}, {!Hwgen.Hwgen_error},
    {!Scaiev.Generator.Generate_error}) are converted at the stage
    boundary, with a note naming the functionality being compiled;
    stringly internal errors (IR/problem verification) are wrapped as
    E0901. *)
val diag_of_stage_exn : exn -> Diag.t option

val with_stage_diags : string -> (unit -> 'a) -> 'a

(** One compiled functionality: a custom instruction or an always-block,
    with every intermediate artifact retained for inspection. *)
type compiled_functionality = {
  cf_name : string;
  cf_kind : [ `Always | `Instruction ];
  cf_hlir : Ir.Mir.graph;  (** the Figure 5b coredsl+hwarith form *)
  cf_lil : Ir.Mir.graph;  (** the optimized Figure 5c CDFG *)
  cf_built : Sched_build.built;  (** the solved LongnailProblem *)
  cf_hw : Hwgen.result;  (** netlist + SCAIE-V port bindings *)
  cf_sv : string;  (** emitted HDL: SystemVerilog, or Verilog-2001 under [k_backend] *)
  cf_mode : Scaiev.Config.mode;  (** dominant execution mode (Section 3.2) *)
}

(** A whole ISAX compiled for one host core. *)
type compiled = {
  core : Scaiev.Datasheet.t;
  unit_ : Coredsl.Tast.tunit;
  funcs : compiled_functionality list;
  config : Scaiev.Config.t;  (** the SCAIE-V configuration (Figure 8) *)
  config_yaml : string;  (** the same, rendered in the YAML exchange format *)
  adapter : Scaiev.Generator.adapter;  (** SCAIE-V's integration plan *)
}

(** Names of the built-in RV32I base instructions (not ISAXes). *)
val base_instr_names : string list lazy_t

val is_isax_instruction : Coredsl.Tast.tinstr -> bool

(** The strongest mode used by any interface binding of a functionality:
    decoupled > tightly-coupled > in-pipeline. *)
val dominant_mode : Hwgen.result -> kind:[> `Always ] -> Scaiev.Config.mode

(** {1 Knobs}

    The one fingerprintable knob record; every field changes an artifact.
    Knobs are part of the sched- and target-artifact cache keys; two
    compiles with equal knobs (and equal unit digests and core
    fingerprints) share artifacts. *)
type knobs = {
  k_scheduler : Sched_build.scheduler;
  k_delay : Delay_model.spec;
  k_cycle_time : float option;  (** [None] = the core's base clock period *)
  k_hazard_handling : bool;
      (** scoreboard for decoupled mode; only affects the target artifact *)
  k_backend : Rtl.Backend.kind;
      (** HDL emission backend: SystemVerilog or Verilog-2001; only
          affects the emitted text of the target artifact *)
  k_narrow : bool;
      (** analysis-driven width narrowing of the optimized LIL
          ({!Analysis.Narrow}); every rewrite is translation-validated
          (E0530 on any counterexample). Off by default. *)
}

val default_knobs : knobs
(** ILP scheduler, the paper's uniform cycle-time-derived delay model, the
    core's base period, hazard handling on, SystemVerilog emission, no
    narrowing. *)

val knobs :
  ?scheduler:Sched_build.scheduler ->
  ?delay:Delay_model.spec ->
  ?cycle_time:float ->
  ?hazard_handling:bool ->
  ?backend:Rtl.Backend.kind ->
  ?narrow:bool ->
  unit ->
  knobs

val func_knobs_key : knobs -> string
(** The knob component of sched-artifact keys: scheduler, cycle time,
    delay spec and narrowing. Hazard handling and the emission backend
    only appear in the target key ({!target_key}), so switching either
    reuses every schedule and netlist. *)

val delay_model_for : Scaiev.Datasheet.t -> knobs -> Delay_model.t
(** Resolve the knob's delay spec against the effective cycle time. *)

(** {1 Compilation sessions}

    A session owns four content-addressed artifact stores (frontend, IR,
    sched, target). A unit is keyed by the digest of the source bytes its
    elaboration read ([tu.elab.digest], see {!Coredsl.Elaborate}), a core
    by {!Cache.Fp.datasheet}. Sessions are shared by the CLI,
    {!compile_many}, {!Dse.explore} and the paper bench; compiling the
    same inputs twice within a session is served entirely from cache. *)
type session

val create_session : ?capacity:int -> ?disk:Cache.Disk.t -> unit -> session
(** [capacity] bounds each store (default 512 entries, LRU beyond that);
    [~capacity:0] creates a session whose stores never retain anything —
    every compile is cold; used for deliberately un-cached baselines.
    [disk] attaches a persistent {!Cache.Disk} store: whole-target output
    artifacts are additionally spilled to / served from it by
    {!compile_outputs} and {!compile_many_outputs}, so a {e fresh process}
    opening the same store directory compiles warm. *)

val session_disk : session -> Cache.Disk.t option
(** The attached persistent store, if any. *)

val session_stats : session -> (string * Cache.Store.stats) list
(** Per-store cumulative hit/miss/store/eviction counters, in pipeline
    order: [frontend], [ir], [sched], [target]. Sessions are safe for
    concurrent use from multiple domains: the stores are single-flight
    (see {!Cache.Store.find_or_add}). *)

val session_solver_stats : session -> Lp.Instance.stats
(** Always {!Lp.Instance.zero_stats}: a stub kept for the benchmark's
    layer probe, since every schedule is one cold solve and no solver
    state outlives it. *)

(** {1 Compile requests}

    The compile API (docs/PARALLELISM.md): one {!Request.t} bundles the
    scheduling knobs, the session, the profiling scope and the worker
    count. It is the {e only} way to configure a compile; knobs travel
    only as one {!knobs} record ([~knobs:(Flow.knobs ~cycle_time:7.0 ())]). *)
module Request : sig
  type t = {
    knobs : knobs;
    session : session option;  (** [None] = a throwaway non-retaining session *)
    obs : Obs.scope option;
    jobs : int;  (** worker domains for batch entry points; [1] = sequential *)
    verify_each : bool;
        (** re-verify the IR after every optimization pass (the
            [--verify-each] sanitizer); purely a checking knob — it never
            changes the produced artifacts, so it is deliberately not part
            of the cache keys *)
  }

  val default : t
  (** [default_knobs], no session, no profiling, one job, no sanitizer. *)

  val make :
    ?knobs:knobs ->
    ?session:session ->
    ?obs:Obs.scope ->
    ?jobs:int ->
    ?verify_each:bool ->
    unit ->
    t
  (** [knobs] defaults to {!default_knobs}. Raises {!Diag.Fatal} (E0902)
      when [jobs < 1]. *)
end

val frontend :
  session -> ?obs:Obs.scope -> key:string -> (unit -> Coredsl.Tast.tunit) -> Coredsl.Tast.tunit
(** Memoize a front-end run (parse + typecheck + elaborate) under a
    caller-supplied key — a digest of everything that determines the
    result: source text, compile target, provider contents. The caller
    owns key completeness; see docs/CACHING.md. With [obs], cache
    counters are recorded on that span. *)

val target_key : knobs -> Scaiev.Datasheet.t -> Coredsl.Tast.tunit -> string
(** The content-addressed key of a whole-target compile: the unit digest,
    the core fingerprint, the knobs, hazard handling and the backend.
    Exposed so callers (e.g. the DSE measure memo) can key their own
    derived artifacts consistently with the session. *)

(** {1 Compiling} *)

(** The per-functionality Figure-9 stage names, in pipeline order. With a
    profiling scope, a {e cold} {!compile_functionality} records one child
    span named ["func:NAME"] containing one span per stage in this list,
    nested under the ["ir_artifact"] (hlir/lil/optimize/verify) and
    ["sched_artifact"] (schedule/hwgen/netcheck) cache-boundary spans;
    ["sv_emit"] runs after ["sched_artifact"], on its netlist, with the
    [k_backend] of the request. The ["verify"] stage runs the
    dialect-aware {!Analysis.Verifier} over the optimized LIL, and
    ["netcheck"] runs {!Analysis.Netcheck} over the generated netlist
    before emission. A cache hit skips the stage spans inside the
    boundary: only the boundary span with its
    [cache.hit]/[cache.miss]/[cache.store] counters remains. *)
val stage_names : string list

(** Compile a single instruction or always-block, configured by
    [?request] (default {!Request.default}). With a profiling scope,
    records a ["func:NAME"] span as described at {!stage_names}.
    Raises {!Diag.Fatal} with code E0401 when scheduling is infeasible; the
    diagnostic cites the CoreDSL span of the operation whose interface
    window cannot be met. *)
val compile_functionality :
  ?request:Request.t ->
  Scaiev.Datasheet.t ->
  Coredsl.Tast.tunit ->
  [ `Always of Coredsl.Tast.talways | `Instr of Coredsl.Tast.tinstr ] ->
  compiled_functionality

(** The Figure 8 bit-pattern string of an instruction's encoding. *)
val mask_of : Coredsl.Tast.tinstr -> string

val compile_request : Request.t -> Scaiev.Datasheet.t -> Coredsl.Tast.tunit -> compiled
(** The canonical single-target entry point: compile every ISAX
    functionality of a typed unit for one host core and produce the
    integration artifacts. [Request.jobs] is ignored here (one target has
    nothing to fan out); without a session a throwaway non-retaining one
    is used, so results are identical with and without caching (see the
    byte-equivalence tests). [knobs.k_hazard_handling = false] drops the
    decoupled-mode scoreboard (the Table 4 ablation row). *)

val compile : ?request:Request.t -> Scaiev.Datasheet.t -> Coredsl.Tast.tunit -> compiled
(** [compile_request] with [?request] defaulting to {!Request.default}. *)

val warm_ir : ?verify_each:bool -> ?narrow:bool -> session -> Coredsl.Tast.tunit -> unit
(** Populate the session's core-independent IR artifacts (hlir + optimized
    lil per ISAX functionality) on the calling domain. {!compile_many}
    calls this before fanning out worker domains, so the frontend/IR half
    is computed once and shared read-only. *)

val compile_many :
  ?request:Request.t -> (Scaiev.Datasheet.t * Coredsl.Tast.tunit) list -> compiled list
(** Batch compile ISAX x core targets through one shared session (a fresh
    retaining session if none is given): common units lower once, common
    (unit, core, knobs) triples compile once. With [Request.jobs > 1] the
    per-target sched/hwgen/SV/integration tail fans out over that many
    worker domains ({!Par.run}); results are collected by index, so the
    output — SV and YAML bytes, diagnostics ordering, the first raised
    failure — is identical to a sequential run. With a profiling scope,
    records one [parallel_compile] span carrying [par.workers] and
    [par.targets] metrics, with one ["target:CORE"] child span per target
    (merged in task order, deterministic at any job count). *)

val find_func : compiled -> string -> compiled_functionality option

(** {1 Portable output artifacts}

    The projection of a {!compiled} target that client-facing front ends
    (the CLI's output files, the [longnail serve] daemon's responses)
    actually consume — per-functionality SystemVerilog plus the SCAIE-V
    YAML and a few integration facts, as plain strings and ints so it
    round-trips through the persistent {!Cache.Disk} store. A disk-warm
    compile returns {!outputs} without rebuilding netlists, schedules or
    adapters; the bytes are identical to a cold compile by construction
    (they {e are} the cold compile's bytes). *)

type output_func = {
  of_name : string;
  of_kind : string;  (** ["instruction"] or ["always"] *)
  of_mode : string;  (** {!Scaiev.Config.mode_to_string} of the dominant mode *)
  of_max_stage : int;
  of_sv : string;
}

type outputs = { o_core : string; o_funcs : output_func list; o_yaml : string }

val outputs_of_compiled : compiled -> outputs

val compile_outputs : Request.t -> Scaiev.Datasheet.t -> Coredsl.Tast.tunit -> outputs
(** Like {!compile_request}, but returns the portable projection and
    consults the session's disk store first: a disk hit skips every
    compile stage; a miss compiles, spills the encoded outputs, and
    returns them. Without an attached disk store this is exactly
    [outputs_of_compiled (compile_request ...)]. With a profiling scope,
    disk lookups record [disk.hit] / [disk.miss] / [disk.store] counters. *)

val compile_many_outputs :
  ?request:Request.t ->
  (Scaiev.Datasheet.t * Coredsl.Tast.tunit) list ->
  outputs list
(** Batch variant of {!compile_outputs}: disk misses fan out through
    {!compile_many} (sharing the in-memory session and worker domains);
    result order matches the input. *)
