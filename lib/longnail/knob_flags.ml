(* The shared knob/cache/parallelism flag table (see the .mli). The CLI
   bridges [specs] into cmdliner terms and folds [set]; the serve daemon
   folds [set] over a request's "knobs" object — both front ends accept
   the exact same names and values. *)

type spec = { name : string; arg : string option; doc : string }

let specs =
  [
    { name = "scheduler"; arg = Some "KIND"; doc = "Scheduler: ilp (default) or asap." };
    {
      name = "delay";
      arg = Some "MODEL";
      doc = "Scheduling delay model: 'default', 'physical', or 'uniform:NS'.";
    };
    {
      name = "cycle-time";
      arg = Some "NS";
      doc = "Target cycle time in nanoseconds (default: the core's base period).";
    };
    {
      name = "no-hazard-handling";
      arg = None;
      doc = "Drop the decoupled-mode scoreboard (the Table 4 ablation row).";
    };
    {
      name = "emit";
      arg = Some "BACKEND";
      doc = "HDL emission backend: sv (SystemVerilog, default) or v2001 (Verilog-2001 subset).";
    };
    {
      name = "narrow";
      arg = Some "MODE";
      doc =
        "Analysis-driven width narrowing: 'on' (translation-validated, E0530 on any \
         counterexample) or 'off' (default).";
    };
    {
      name = "jobs";
      arg = Some "N";
      doc = "Worker domains for batch compiles (default 1 = sequential).";
    };
    {
      name = "verify-each";
      arg = None;
      doc = "Re-verify the IR after every optimization pass (sanitizer; E0512 on failure).";
    };
    {
      name = "cache-capacity";
      arg = Some "N";
      doc = "Maximum entries per artifact store (default 512, LRU beyond).";
    };
    {
      name = "store";
      arg = Some "DIR";
      doc =
        "Persistent on-disk artifact store: target outputs are spilled to DIR so a later \
         process compiles warm.";
    };
    {
      name = "store-budget-mb";
      arg = Some "MB";
      doc = "Size budget of the on-disk store in MiB (default 256, LRU eviction beyond).";
    };
  ]

type t = {
  knobs : Flow.knobs;
  jobs : int;
  cache_capacity : int option;
  verify_each : bool;
  store_dir : string option;
  store_budget_mb : int option;
}

let default =
  {
    knobs = Flow.default_knobs;
    jobs = 1;
    cache_capacity = None;
    verify_each = false;
    store_dir = None;
    store_budget_mb = None;
  }

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let knob t f = Ok { t with knobs = f t.knobs }

let set t name value =
  match (name, value) with
  | "scheduler", Some "ilp" -> knob t (fun k -> { k with k_scheduler = Sched_build.Ilp })
  | "scheduler", Some "asap" -> knob t (fun k -> { k with k_scheduler = Sched_build.Asap })
  | "scheduler", Some v -> err "--scheduler expects 'ilp' or 'asap', got '%s'" v
  | "delay", Some "default" -> knob t (fun k -> { k with k_delay = Delay_model.Default })
  | "delay", Some "physical" -> knob t (fun k -> { k with k_delay = Delay_model.Physical })
  | "delay", Some v when String.length v > 8 && String.sub v 0 8 = "uniform:" -> (
      let ns = String.sub v 8 (String.length v - 8) in
      match float_of_string_opt ns with
      | Some f when Float.is_finite f && f > 0.0 ->
          knob t (fun k -> { k with k_delay = Delay_model.Uniform f })
      | _ -> err "--delay uniform:NS expects a positive number of ns, got '%s'" ns)
  | "delay", Some v -> err "--delay expects 'default', 'physical' or 'uniform:NS', got '%s'" v
  | "cycle-time", Some v -> (
      match float_of_string_opt v with
      | Some f when Float.is_finite f && f > 0.0 ->
          knob t (fun k -> { k with k_cycle_time = Some f })
      | _ -> err "--cycle-time expects a positive number of ns, got '%s'" v)
  | "no-hazard-handling", None -> knob t (fun k -> { k with k_hazard_handling = false })
  | "emit", Some v -> (
      (* Diag.Choice supplies the did-you-mean hint; front ends map this
         to the structured E0913 diagnostic via [error_code]. *)
      match Rtl.Backend.of_string v with
      | Ok b -> knob t (fun k -> { k with k_backend = b })
      | Error m -> err "--emit: %s" m)
  | "narrow", Some "on" -> knob t (fun k -> { k with k_narrow = true })
  | "narrow", Some "off" -> knob t (fun k -> { k with k_narrow = false })
  | "narrow", Some v -> err "--narrow expects 'on' or 'off', got '%s'" v
  | "jobs", Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Ok { t with jobs = n }
      | _ -> err "--jobs expects an integer >= 1, got '%s'" v)
  | "verify-each", None -> Ok { t with verify_each = true }
  | "cache-capacity", Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok { t with cache_capacity = Some n }
      | _ -> err "--cache-capacity expects a non-negative integer, got '%s'" v)
  | "store", Some dir when dir <> "" -> Ok { t with store_dir = Some dir }
  | "store", Some _ -> err "--store expects a directory path"
  | "store-budget-mb", Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok { t with store_budget_mb = Some n }
      | _ -> err "--store-budget-mb expects a non-negative integer, got '%s'" v)
  | name, v -> (
      (* an unknown name (a misspelt serve knob) is named as such, with a
         did-you-mean hint, before any complaint about its value *)
      let names = List.map (fun s -> (s.name, ())) specs in
      match Diag.Choice.parse ~what:"knob" ~choices:names name with
      | Error m -> Error m
      | Ok () when v = None -> err "--%s requires a value" name
      | Ok () -> err "--%s does not take a value" name)

(* Flags whose rejections are structured diagnostics rather than plain
   usage errors: unknown backend names are E0913 (same shape as the
   E0912 unknown-core diagnostic, with did-you-mean suggestions). *)
let error_code = function "emit" -> Some "E0913" | _ -> None

let disk t =
  Option.map
    (fun dir ->
      let budget_bytes = Option.map (fun mb -> mb * 1024 * 1024) t.store_budget_mb in
      Cache.Disk.open_store ?budget_bytes dir)
    t.store_dir

let session t =
  Flow.create_session ?capacity:t.cache_capacity ?disk:(disk t) ()

let request ?session:s ?obs t =
  let session = match s with Some s -> s | None -> session t in
  Flow.Request.make ~knobs:t.knobs ~session ?obs ~jobs:t.jobs ~verify_each:t.verify_each ()
