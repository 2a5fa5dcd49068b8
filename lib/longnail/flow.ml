(* The end-to-end Longnail flow (Figure 9):

   CoreDSL source
     -> typed AST                      (lib/coredsl)
     -> high-level IR, Figure 5b      (Ir.Hlir)
     -> lil CDFG, Figure 5c           (Ir.Lil + Ir.Passes)
     -> LongnailProblem + schedule    (Sched_build, against the core's
                                       virtual datasheet)
     -> RTL + SystemVerilog, Fig 5d   (Hwgen, Rtl.Sv_emit)
     -> SCAIE-V configuration, Fig 8  (Config_gen)

   Only the ISAX instructions (those not part of the RV32I base set) and
   always-blocks are synthesized; base instructions are implemented by the
   host core itself.

   The flow is organized as a *compilation session*: every stage boundary
   is a content-addressed artifact (Cache.Store) keyed by the unit's
   source digest (tu.elab.digest) and the core's datasheet fingerprint
   (Cache.Fp), so repeated compiles — the CLI, batch compiles, the DSE
   sweep, the paper bench — reuse everything upstream of the first
   changed input. Artifact granularity:

     frontend artifact   per source            (caller-supplied key)
     IR artifact         per functionality     (unit digest; core-independent)
     sched artifact      per functionality x core x scheduling knobs
     target artifact     per unit x core x knobs (incl. hazard handling
                         and the emission backend)

   Hazard handling only affects the SCAIE-V adapter and the emission
   backend only the HDL text, so both appear only in the target key: the
   w/ and w/o-scoreboard ablation and an SV/Verilog-2001 switch share
   every schedule and netlist. *)

(* Every failure of the flow surfaces as [Diag.Fatal]: stage exceptions
   already carrying a [Diag.t] are re-raised as fatal diagnostics at the
   stage boundary; stringly internal errors (problem verification) are
   wrapped as E0901. *)

let diag_of_stage_exn = function
  | Ir.Hlir.Lower_error d
  | Ir.Lil.Lil_error d
  | Sched_build.Build_error d
  | Hwgen.Hwgen_error d
  | Scaiev.Generator.Generate_error d ->
      Some d
  | Analysis.Verifier.Verify_error d | Analysis.Netcheck.Netcheck_error d -> Some d
  | Sched.Problem.Problem_error m -> Some (Diag.make ~code:"E0901" ("internal: " ^ m))
  | _ -> None

(* Run [f], converting any stage exception into a fatal diagnostic that
   names the functionality being compiled. *)
let with_stage_diags what f =
  try f ()
  with e -> (
    match diag_of_stage_exn e with
    | Some d -> Diag.fatal { d with Diag.notes = d.Diag.notes @ [ "while compiling " ^ what ] }
    | None -> raise e)

type compiled_functionality = {
  cf_name : string;
  cf_kind : [ `Instruction | `Always ];
  cf_hlir : Ir.Mir.graph;
  cf_lil : Ir.Mir.graph;
  cf_built : Sched_build.built;
  cf_hw : Hwgen.result;
  cf_sv : string;
  cf_mode : Scaiev.Config.mode;  (* dominant execution mode *)
}

type compiled = {
  core : Scaiev.Datasheet.t;
  unit_ : Coredsl.Tast.tunit;
  funcs : compiled_functionality list;
  config : Scaiev.Config.t;
  config_yaml : string;
  adapter : Scaiev.Generator.adapter;
}

(* names of the base RV32I instructions, which are not ISAXes *)
let base_instr_names =
  lazy
    (let tu = Coredsl.compile_rv32i () in
     List.map (fun (ti : Coredsl.Tast.tinstr) -> ti.ti_name) tu.tinstrs)

(* Forcing a lazy concurrently from two domains raises [RacyLazy], so
   every internal access goes through this lock; the parallel driver also
   forces it eagerly before fanning out worker domains. *)
let base_instr_lock = Mutex.create ()
let base_names () = Mutex.protect base_instr_lock (fun () -> Lazy.force base_instr_names)

let is_isax_instruction (ti : Coredsl.Tast.tinstr) =
  not (List.mem ti.ti_name (base_names ()))

let dominant_mode (hw : Hwgen.result) ~kind =
  if kind = `Always then Scaiev.Config.Always_mode
  else if List.exists (fun b -> b.Hwgen.ib_mode = Scaiev.Config.Decoupled) hw.bindings then
    Scaiev.Config.Decoupled
  else if List.exists (fun b -> b.Hwgen.ib_mode = Scaiev.Config.Tightly_coupled) hw.bindings
  then Scaiev.Config.Tightly_coupled
  else Scaiev.Config.In_pipeline

(* ---- scheduling knobs ------------------------------------------------ *)

type knobs = {
  k_scheduler : Sched_build.scheduler;
  k_delay : Delay_model.spec;
  k_cycle_time : float option;  (* None = the core's base clock period *)
  k_hazard_handling : bool;
  k_backend : Rtl.Backend.kind;  (* HDL emission backend *)
  k_narrow : bool;  (* analysis-driven width narrowing (TV-guarded) *)
}

let default_knobs =
  {
    k_scheduler = Sched_build.Ilp;
    k_delay = Delay_model.Default;
    k_cycle_time = None;
    k_hazard_handling = true;
    k_backend = Rtl.Backend.Sv;
    k_narrow = false;
  }

let knobs ?(scheduler = Sched_build.Ilp) ?(delay = Delay_model.Default) ?cycle_time
    ?(hazard_handling = true) ?(backend = Rtl.Backend.Sv) ?(narrow = false) () =
  { k_scheduler = scheduler; k_delay = delay; k_cycle_time = cycle_time;
    k_hazard_handling = hazard_handling; k_backend = backend; k_narrow = narrow }

let scheduler_name = function Sched_build.Ilp -> "ilp" | Sched_build.Asap -> "asap"

(* The knob part of the per-functionality sched key: exactly the knobs
   that change the schedule or the netlist. Hazard handling (the adapter)
   and the emission backend (the HDL text) are deliberately absent; both
   appear only in the target key. *)
let func_knobs_key k =
  Printf.sprintf "%s|ct:%s|%s|nw:%s" (scheduler_name k.k_scheduler)
    (match k.k_cycle_time with Some ct -> Printf.sprintf "%h" ct | None -> "core")
    (Delay_model.spec_key k.k_delay)
    (if k.k_narrow then "on" else "off")

let delay_model_for core k =
  let ct =
    match k.k_cycle_time with Some ct -> ct | None -> Scaiev.Datasheet.cycle_time_ns core
  in
  Delay_model.resolve k.k_delay ~cycle_time_ns:ct

(* ---- compilation sessions -------------------------------------------- *)

(* IR artifact: the core-independent half of a functionality (Figure 5b
   and the optimized Figure 5c CDFG). *)
type func_ir = { fi_hlir : Ir.Mir.graph; fi_lil : Ir.Mir.graph }

(* Sched artifact: the solved problem and the netlist built from it. It
   holds no HDL text, so every emission backend shares it. *)
type func_hw = { fh_built : Sched_build.built; fh_hw : Hwgen.result; fh_mode : Scaiev.Config.mode }

type session = {
  s_frontend : Coredsl.Tast.tunit Cache.Store.t;
  s_ir : func_ir Cache.Store.t;
  s_func : func_hw Cache.Store.t;
  s_target : compiled Cache.Store.t;
  s_disk : Cache.Disk.t option;
      (* persistent spill: whole-target output artifacts (SV + YAML +
         integration facts) are additionally written to / served from a
         content-addressed on-disk store, so a *fresh process* opening
         the same store directory compiles warm. Only [compile_outputs]
         / [compile_many_outputs] consult it: the full [compiled] value
         (netlists, schedules, adapters) exists only on real compiles. *)
}

let create_session ?capacity ?disk () =
  {
    s_frontend = Cache.Store.create ?capacity ~name:"frontend" ();
    s_ir = Cache.Store.create ?capacity ~name:"ir" ();
    s_func = Cache.Store.create ?capacity ~name:"sched" ();
    s_target = Cache.Store.create ?capacity ~name:"target" ();
    s_disk = disk;
  }

(* read by the benchmark's layer probe; every schedule is one cold
   solve, so there are no counters to report *)
let session_solver_stats (_ : session) = Lp.Instance.zero_stats

let session_disk s = s.s_disk

let session_stats s =
  [
    (Cache.Store.name s.s_frontend, Cache.Store.stats s.s_frontend);
    (Cache.Store.name s.s_ir, Cache.Store.stats s.s_ir);
    (Cache.Store.name s.s_func, Cache.Store.stats s.s_func);
    (Cache.Store.name s.s_target, Cache.Store.stats s.s_target);
  ]

let frontend s ?obs ~key thunk = Cache.Store.find_or_add s.s_frontend ?obs ("fe/" ^ key) thunk

(* A unit is keyed by the digest of the source bytes its elaboration
   read, a core by its datasheet fingerprint. *)
let ir_key (tu : Coredsl.Tast.tunit) ~narrow ~kind ~name =
  Printf.sprintf "%s/%s/%s%s" tu.elab.digest
    (match kind with `Instruction -> "instr" | `Always -> "always")
    name
    (if narrow then "/nw" else "")

let func_key k core tu ~kind ~name =
  Printf.sprintf "%s/%s/%s"
    (ir_key tu ~narrow:k.k_narrow ~kind ~name)
    (Cache.Fp.datasheet core) (func_knobs_key k)

let target_key k (core : Scaiev.Datasheet.t) (tu : Coredsl.Tast.tunit) =
  Printf.sprintf "%s/%s/%s|%s|be:%s" tu.elab.digest (Cache.Fp.datasheet core) (func_knobs_key k)
    (if k.k_hazard_handling then "hz" else "nohz")
    (Rtl.Backend.to_string k.k_backend)

(* A throwaway session with storing disabled: used when a caller compiles
   without a session, so the un-cached path has no retention cost. *)
let throwaway () = create_session ~capacity:0 ()

(* ---- compile requests ------------------------------------------------ *)

(* The unified public compile API: one record bundles everything a compile
   entry point takes; knobs travel as one [knobs] record. *)
module Request = struct
  type t = {
    knobs : knobs;
    session : session option;
    obs : Obs.scope option;
    jobs : int;
    verify_each : bool;
  }

  let default =
    { knobs = default_knobs; session = None; obs = None; jobs = 1; verify_each = false }

  let make ?(knobs = default_knobs) ?session ?obs ?(jobs = 1) ?(verify_each = false) () =
    if jobs < 1 then
      Diag.fatalf ~code:"E0902" "invalid compile request: jobs must be >= 1 (got %d)" jobs;
    { knobs; session; obs; jobs; verify_each }
end

(* ---- per-functionality stages ---------------------------------------- *)

(* The per-functionality Figure-9 stages, in pipeline order. Each cold
   compiled functionality records exactly one profiling span per stage
   (nested under the [ir_artifact] / [sched_artifact] cache-boundary
   spans, except [sv_emit], which runs after [sched_artifact] on its
   netlist); tests and the CI schema check rely on this list staying in
   sync with [compile_functionality]. Cache hits skip the stage spans
   inside the boundary — only the boundary span with its cache counters
   remains. *)
let stage_names =
  [ "hlir"; "lil"; "optimize"; "verify"; "schedule"; "hwgen"; "netcheck"; "sv_emit" ]

(* [--verify-each] sanitizer: re-check the graph after every pass and blame
   the pass (E0512) rather than reporting a bare verifier failure. *)
let pass_sanitizer ~pass_name g =
  match Analysis.Verifier.check ~level:`Lil g with
  | [] -> ()
  | (d : Diag.t) :: _ ->
      Diag.fatal
        {
          d with
          Diag.code = "E0512";
          message =
            Printf.sprintf "pass '%s' produced invalid IR: %s" pass_name d.Diag.message;
        }

let build_func_ir ?(verify_each = false) ?(narrow = false) (tu : Coredsl.Tast.tunit) obs fn =
  let hlir, fields =
    Obs.span_opt obs "hlir" (fun sobs ->
        let hlir, fields =
          match fn with
          | `Instr (ti : Coredsl.Tast.tinstr) -> (Ir.Hlir.lower_instruction tu ti, ti.fields)
          | `Always ta -> (Ir.Hlir.lower_always tu ta, [])
        in
        Analysis.Verifier.verify ~level:`Hlir hlir;
        Obs.metric_int_opt sobs "ops" (Ir.Passes.op_count hlir);
        Obs.metric_int_opt sobs "edges" (Ir.Passes.edge_count hlir);
        (hlir, fields))
  in
  let lil =
    Obs.span_opt obs "lil" (fun sobs ->
        let lil = Ir.Lil.of_hlir tu.elab ~fields hlir in
        Obs.metric_int_opt sobs "ops" (Ir.Passes.op_count lil);
        Obs.metric_int_opt sobs "edges" (Ir.Passes.edge_count lil);
        lil)
  in
  let lil =
    Obs.span_opt obs "optimize" (fun sobs ->
        let sanitizer = if verify_each then Some pass_sanitizer else None in
        Ir.Passes.optimize ?obs:sobs ?verify_each:sanitizer lil)
  in
  (* analysis-driven width narrowing: off by default so the stage list
     (and the profile schema) only grows when the knob asks for it. Every
     rewrite inside is translation-validated (E0530 on counterexample). *)
  let lil =
    if not narrow then lil
    else
      Obs.span_opt obs "narrow" (fun sobs ->
          let sanitizer = if verify_each then Some pass_sanitizer else None in
          let lil, (st : Analysis.Narrow.stats) =
            Analysis.Narrow.narrow_graph ?obs:sobs ?verify_each:sanitizer lil
          in
          Obs.metric_int_opt sobs "ops_rewritten" st.ns_ops_rewritten;
          Obs.metric_int_opt sobs "bits_removed" st.ns_bits_removed;
          Obs.metric_int_opt sobs "compares_folded" st.ns_compares_folded;
          Obs.metric_int_opt sobs "selects_removed" st.ns_selects_removed;
          Obs.metric_int_opt sobs "tv_validations" st.ns_tv_validations;
          Obs.metric_int_opt sobs "tv_vectors" st.ns_tv_vectors;
          Obs.metric_int_opt sobs "tv_exhaustive" st.ns_tv_exhaustive;
          lil)
  in
  let lil =
    Obs.span_opt obs "verify" (fun sobs ->
        Analysis.Verifier.verify ~level:`Lil lil;
        Ir.Lil.validate_single_use lil;
        Obs.metric_int_opt sobs "ops" (Ir.Passes.op_count lil);
        lil)
  in
  { fi_hlir = hlir; fi_lil = lil }

let build_func_hw (core : Scaiev.Datasheet.t) (tu : Coredsl.Tast.tunit) k ~name
    ~kind obs (fir : func_ir) : func_hw =
  let delay_model = delay_model_for core k in
  let cycle_time = k.k_cycle_time in
  let scheduler = k.k_scheduler in
  let lil = fir.fi_lil in
  let built =
    Obs.span_opt obs "schedule" (fun sobs ->
        let built = Sched_build.build core ~delay_model ?cycle_time lil in
        let p = built.Sched_build.problem in
        Obs.metric_str_opt sobs "scheduler" (scheduler_name scheduler);
        Obs.metric_int_opt sobs "sched_ops" (Array.length p.Sched.Problem.operations);
        Obs.metric_int_opt sobs "sched_deps" (List.length p.Sched.Problem.dependences);
        let vars, constraints = Sched.Ilp_scheduler.ilp_size p in
        Obs.metric_int_opt sobs "ilp_vars" vars;
        Obs.metric_int_opt sobs "ilp_constraints" constraints;
        let rounds = ref 0 in
        let feasible = Sched_build.schedule ~scheduler ~rounds built in
        if scheduler = Sched_build.Ilp then Obs.metric_int_opt sobs "solver.bf_rounds" !rounds;
        Obs.metric_int_opt sobs "feasible" (if feasible then 1 else 0);
        if not feasible then begin
          (* name the operation that overshoots its interface window, so the
             error points at the CoreDSL line it was lowered from *)
          let span, notes =
            match Sched_build.infeasible_culprit built with
            | Some (culprit, lb, latest) ->
                ( culprit.Ir.Mir.oloc,
                  [
                    Printf.sprintf
                      "%s cannot start before stage %d, but core %s requires it no later \
                       than stage %d"
                      culprit.Ir.Mir.opname lb core.core_name latest;
                  ] )
            | None -> (None, [])
          in
          Diag.fatal
            (Diag.make ?span ~notes ~code:"E0401"
               (Printf.sprintf "scheduling of %s for core %s is infeasible" name
                  core.core_name))
        end;
        Sched.Problem.verify built.problem;
        Obs.metric_int_opt sobs "latency"
          (Array.fold_left max 0 p.Sched.Problem.start_time);
        built)
  in
  let hw =
    Obs.span_opt obs "hwgen" (fun sobs ->
        let hw = Hwgen.generate core tu.elab built lil in
        let st = Rtl.Netlist.stats hw.Hwgen.netlist in
        Obs.metric_int_opt sobs "cells" st.Rtl.Netlist.n_comb_nodes;
        Obs.metric_int_opt sobs "registers" st.Rtl.Netlist.n_registers;
        Obs.metric_int_opt sobs "register_bits" st.Rtl.Netlist.register_bits;
        Obs.metric_int_opt sobs "max_stage" hw.Hwgen.max_stage;
        Obs.metric_int_opt sobs "pipe_reg_bits" hw.Hwgen.pipe_reg_bits;
        hw)
  in
  Obs.span_opt obs "netcheck" (fun sobs ->
      Analysis.Netcheck.verify ~what:name
        ~provenance:(Analysis.Netcheck.signal_provenance lil)
        hw.Hwgen.netlist;
      Obs.metric_int_opt sobs "signals" (List.length hw.Hwgen.netlist.Rtl.Netlist.nodes));
  { fh_built = built; fh_hw = hw; fh_mode = dominant_mode hw ~kind }

let compile_functionality_in session k ?obs ?(verify_each = false)
    (core : Scaiev.Datasheet.t)
    (tu : Coredsl.Tast.tunit)
    (fn : [ `Instr of Coredsl.Tast.tinstr | `Always of Coredsl.Tast.talways ]) :
    compiled_functionality =
  let name, kind =
    match fn with
    | `Instr ti -> (ti.Coredsl.Tast.ti_name, `Instruction)
    | `Always ta -> (ta.Coredsl.Tast.ta_name, `Always)
  in
  Obs.span_opt obs ("func:" ^ name) @@ fun obs ->
  with_stage_diags name @@ fun () ->
  Obs.metric_str_opt obs "kind"
    (match kind with `Instruction -> "instruction" | `Always -> "always");
  let fir =
    Obs.span_opt obs "ir_artifact" @@ fun sobs ->
    Cache.Store.find_or_add session.s_ir ?obs:sobs
      (ir_key tu ~narrow:k.k_narrow ~kind ~name)
      (fun () -> build_func_ir ~verify_each ~narrow:k.k_narrow tu sobs fn)
  in
  let fh =
    Obs.span_opt obs "sched_artifact" @@ fun sobs ->
    Cache.Store.find_or_add session.s_func ?obs:sobs (func_key k core tu ~kind ~name)
      (fun () -> build_func_hw core tu k ~name ~kind sobs fir)
  in
  (* emission is the last step over the cached netlist, so a backend
     switch costs one emit and never re-schedules *)
  let sv =
    Obs.span_opt obs "sv_emit" (fun sobs ->
        let sv = Rtl.Backend.emit k.k_backend fh.fh_hw.netlist in
        Obs.metric_int_opt sobs "sv_bytes" (String.length sv);
        sv)
  in
  {
    cf_name = name;
    cf_kind = kind;
    cf_hlir = fir.fi_hlir;
    cf_lil = fir.fi_lil;
    cf_built = fh.fh_built;
    cf_hw = fh.fh_hw;
    cf_sv = sv;
    cf_mode = fh.fh_mode;
  }

let compile_functionality ?request (core : Scaiev.Datasheet.t) (tu : Coredsl.Tast.tunit)
    (fn : [ `Instr of Coredsl.Tast.tinstr | `Always of Coredsl.Tast.talways ]) :
    compiled_functionality =
  let r = Option.value request ~default:Request.default in
  let session = match r.Request.session with Some s -> s | None -> throwaway () in
  compile_functionality_in session r.Request.knobs ?obs:r.Request.obs
    ~verify_each:r.Request.verify_each core tu fn

let mask_of (ti : Coredsl.Tast.tinstr) =
  Scaiev.Config.mask_string ~width:ti.enc_width ~mask:ti.mask ~match_bits:ti.match_bits

let build_target session k ?obs ?verify_each (core : Scaiev.Datasheet.t)
    (tu : Coredsl.Tast.tunit) : compiled =
  let instrs = List.filter is_isax_instruction tu.tinstrs in
  let funcs =
    List.map
      (fun ti -> compile_functionality_in session k ?obs ?verify_each core tu (`Instr ti))
      instrs
    @ List.map
        (fun ta -> compile_functionality_in session k ?obs ?verify_each core tu (`Always ta))
        tu.talways
  in
  Obs.metric_int_opt obs "n_funcs" (List.length funcs);
  let config =
    Obs.span_opt obs "config_gen" @@ fun _ ->
    {
      Scaiev.Config.regs = Config_gen.reg_requests tu.elab (List.map (fun f -> f.cf_hw) funcs);
      funcs =
        List.map
          (fun f ->
            let mask =
              match f.cf_kind with
              | `Instruction -> (
                  match Coredsl.Tast.find_tinstr tu f.cf_name with
                  | Some ti -> mask_of ti
                  | None ->
                      Diag.fatalf ~code:"E0901"
                        "internal: compiled instruction %s is missing from the typed unit"
                        f.cf_name)
              | `Always -> ""
            in
            Config_gen.functionality_of ~name:f.cf_name ~kind:f.cf_kind ~mask f.cf_hw)
          funcs;
    }
  in
  let adapter, config_yaml =
    Obs.span_opt obs "adapter_gen" (fun sobs ->
        let adapter =
          with_stage_diags "the SCAIE-V adapter" (fun () ->
              Scaiev.Generator.generate ~hazard_handling:k.k_hazard_handling core config)
        in
        let yaml = Scaiev.Config.to_yaml config in
        Obs.metric_int_opt sobs "config_yaml_bytes" (String.length yaml);
        (adapter, yaml))
  in
  { core; unit_ = tu; funcs; config; config_yaml; adapter }

(* Compile every ISAX functionality of [tu] for [core] — the single
   implementation behind [compile] and the per-target tail of
   [compile_many]. *)
let compile_request (r : Request.t) (core : Scaiev.Datasheet.t) (tu : Coredsl.Tast.tunit) :
    compiled =
  let k = r.Request.knobs in
  let session = match r.Request.session with Some s -> s | None -> throwaway () in
  let obs = r.Request.obs in
  Obs.metric_str_opt obs "core" core.core_name;
  Cache.Store.find_or_add session.s_target ?obs (target_key k core tu) (fun () ->
      build_target session k ?obs ~verify_each:r.Request.verify_each core tu)

let compile ?request (core : Scaiev.Datasheet.t) (tu : Coredsl.Tast.tunit) : compiled =
  compile_request (Option.value request ~default:Request.default) core tu

(* Populate the session's core-independent IR artifacts for [tu] on the
   calling domain. The parallel driver runs this before fanning out, so
   the frontend/IR half is computed once and shared read-only — worker
   domains then run only the per-target sched/hwgen/SV/integration tail. *)
let warm_ir ?(verify_each = false) ?(narrow = false) session (tu : Coredsl.Tast.tunit) =
  let warm ~kind ~name fn =
    with_stage_diags name (fun () ->
        ignore
          (Cache.Store.find_or_add session.s_ir (ir_key tu ~narrow ~kind ~name)
             (fun () -> build_func_ir ~verify_each ~narrow tu None fn)))
  in
  List.iter
    (fun (ti : Coredsl.Tast.tinstr) -> warm ~kind:`Instruction ~name:ti.ti_name (`Instr ti))
    (List.filter is_isax_instruction tu.tinstrs);
  List.iter
    (fun (ta : Coredsl.Tast.talways) -> warm ~kind:`Always ~name:ta.ta_name (`Always ta))
    tu.talways

(* Batch compile: fan the per-target tail out over [jobs] worker domains.
   Results are collected by index, so the output list (and therefore SV /
   YAML bytes and diagnostics ordering) is identical to a sequential run;
   with a profiling scope every target records into its own single-domain
   scope, merged under one [parallel_compile] span in task order. *)
let compile_many ?request targets =
  let r = Option.value request ~default:Request.default in
  let session = match r.Request.session with Some s -> s | None -> create_session () in
  let n = List.length targets in
  let jobs = max 1 (min r.Request.jobs (max n 1)) in
  Obs.span_opt r.Request.obs "parallel_compile" @@ fun pobs ->
  Obs.metric_int_opt pobs "par.workers" jobs;
  Obs.metric_int_opt pobs "par.targets" n;
  if jobs > 1 then begin
    (* worker-domain safety: force the base-instruction lazy before
       domains could race on it, and warm the shared IR artifacts so the
       fan-out is purely per-target *)
    ignore (base_names ());
    let seen = ref [] in
    List.iter
      (fun ((_ : Scaiev.Datasheet.t), tu) ->
        if not (List.memq tu !seen) then begin
          seen := tu :: !seen;
          warm_ir ~verify_each:r.Request.verify_each ~narrow:r.Request.knobs.k_narrow
            session tu
        end)
      targets
  end;
  let task ((core : Scaiev.Datasheet.t), tu) () =
    let tobs =
      match pobs with
      | None -> None
      | Some _ -> Some (Obs.create ~name:("target:" ^ core.core_name) ())
    in
    let result =
      compile_request
        { r with Request.session = Some session; obs = tobs; jobs = 1 }
        core tu
    in
    Option.iter Obs.finish tobs;
    (result, Option.map Obs.root tobs)
  in
  let results = Par.run ~jobs (List.map task targets) in
  (match pobs with
  | None -> ()
  | Some p -> List.iter (fun (_, sp) -> Option.iter (Obs.attach p) sp) results);
  List.map fst results

let find_func c name = List.find_opt (fun f -> f.cf_name = name) c.funcs

(* ---- portable output artifacts (the disk-spilled projection) --------- *)

(* The subset of a [compiled] target that client-facing front ends (the
   CLI's output files, the serve daemon's responses) actually consume,
   as plain strings/ints so it round-trips through the on-disk store.
   Full [compiled] values — netlists, schedules, adapters — exist only
   on real compiles; a disk-warm process never rebuilds them. *)

type output_func = {
  of_name : string;
  of_kind : string;  (* "instruction" | "always" *)
  of_mode : string;  (* Scaiev.Config.mode_to_string *)
  of_max_stage : int;
  of_sv : string;
}

type outputs = { o_core : string; o_funcs : output_func list; o_yaml : string }

let outputs_of_compiled (c : compiled) =
  {
    o_core = c.core.Scaiev.Datasheet.core_name;
    o_funcs =
      List.map
        (fun (f : compiled_functionality) ->
          {
            of_name = f.cf_name;
            of_kind = (match f.cf_kind with `Instruction -> "instruction" | `Always -> "always");
            of_mode = Scaiev.Config.mode_to_string f.cf_mode;
            of_max_stage = f.cf_hw.Hwgen.max_stage;
            of_sv = f.cf_sv;
          })
        c.funcs;
    o_yaml = c.config_yaml;
  }

(* The outputs codec: length-prefixed fields, fully self-delimiting. Its
   version is folded into the disk key (not the file header), so a codec
   change simply misses every old entry instead of misreading it; the
   store's own [Cache.Disk.format_version] guards the file layout. *)
let outputs_codec_version = 1

let outputs_key k core tu =
  Printf.sprintf "out%d/%s" outputs_codec_version (target_key k core tu)

let encode_outputs (o : outputs) =
  let b = Buffer.create 4096 in
  let put_int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b '\n'
  in
  let put_str s =
    put_int (String.length s);
    Buffer.add_string b s
  in
  put_str o.o_core;
  put_str o.o_yaml;
  put_int (List.length o.o_funcs);
  List.iter
    (fun f ->
      put_str f.of_name;
      put_str f.of_kind;
      put_str f.of_mode;
      put_int f.of_max_stage;
      put_str f.of_sv)
    o.o_funcs;
  Buffer.contents b

let decode_outputs payload =
  let pos = ref 0 in
  let fail () = raise Exit in
  let get_int () =
    match String.index_from_opt payload !pos '\n' with
    | None -> fail ()
    | Some i -> (
        let s = String.sub payload !pos (i - !pos) in
        pos := i + 1;
        match int_of_string_opt s with Some n -> n | None -> fail ())
  in
  let get_str () =
    let n = get_int () in
    if n < 0 || !pos + n > String.length payload then fail ();
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  in
  try
    let o_core = get_str () in
    let o_yaml = get_str () in
    let n = get_int () in
    if n < 0 then fail ();
    let o_funcs =
      List.init n (fun _ ->
          let of_name = get_str () in
          let of_kind = get_str () in
          let of_mode = get_str () in
          let of_max_stage = get_int () in
          let of_sv = get_str () in
          { of_name; of_kind; of_mode; of_max_stage; of_sv })
    in
    if !pos <> String.length payload then fail ();
    Some { o_core; o_funcs; o_yaml }
  with Exit -> None

(* Batch compile to output artifacts, consulting the session's disk
   store: disk hits skip compilation entirely (including IR lowering and
   scheduling); misses run through [compile_many] — sharing the in-memory
   session and the worker-domain fan-out — and are spilled back so the
   next process starts warm. Result order matches [targets]. *)
let compile_many_outputs ?request targets =
  let r = match request with Some r -> r | None -> Request.default in
  let session = match r.Request.session with Some s -> s | None -> create_session () in
  let r = { r with Request.session = Some session } in
  match session.s_disk with
  | None -> List.map outputs_of_compiled (compile_many ~request:r targets)
  | Some d ->
      let obs = r.Request.obs in
      let probed =
        List.map
          (fun (core, tu) ->
            let key = outputs_key r.Request.knobs core tu in
            (key, Option.bind (Cache.Disk.find d ?obs key) decode_outputs))
          targets
      in
      let missing =
        List.filter_map
          (fun (target, (_, found)) -> if found = None then Some target else None)
          (List.combine targets probed)
      in
      let computed = if missing = [] then [] else compile_many ~request:r missing in
      let rec stitch probed computed acc =
        match probed with
        | [] -> List.rev acc
        | (_, Some outs) :: rest -> stitch rest computed (outs :: acc)
        | (key, None) :: rest -> (
            match computed with
            | c :: computed' ->
                let outs = outputs_of_compiled c in
                Cache.Disk.store d ?obs key (encode_outputs outs);
                stitch rest computed' (outs :: acc)
            | [] -> Diag.fatalf ~code:"E0901" "internal: compile_many_outputs lost a target")
      in
      stitch probed computed []

let compile_outputs (r : Request.t) core tu =
  match compile_many_outputs ~request:r [ (core, tu) ] with
  | [ o ] -> o
  | _ -> Diag.fatalf ~code:"E0901" "internal: compile_outputs lost the target"
