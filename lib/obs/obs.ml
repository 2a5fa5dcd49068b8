(* Observability substrate for the compile pipeline.

   A [scope] is a cursor into a tree of spans. Each span records a name,
   wall-clock duration, an ordered list of metrics (ints, floats, strings,
   monotonically accumulated counters), and child spans. The tree mirrors
   the paper's Figure-9 flow: the root covers one driver invocation, each
   compiled functionality gets a child, and every pipeline stage
   (parse/typecheck, HLIR build, lil lowering, optimization passes,
   scheduling, hwgen, SV emission) nests underneath.

   Renderers: a JSON emitter (machine-readable; [--profile=json] and
   perfbench's traced runs) and a pretty tree printer
   (the CLI's `--profile` output). The emitted metric-name *schema* is a
   stable contract checked in CI, so renames are deliberate.

   Overhead when unused is two words per [span] call; the flow creates a
   scope only when profiling is requested. *)

type metric =
  | M_int of int
  | M_float of float
  | M_str of string

type span = {
  sp_name : string;
  mutable sp_elapsed_ns : float;  (* wall time of the span body *)
  mutable sp_metrics : (string * metric) list;  (* reverse insertion order *)
  mutable sp_children : span list;  (* reverse order *)
}

(* A scope points at the span currently being recorded, plus the wall
   clock at which that span started (so a root scope can be [finish]ed). *)
type scope = { current : span; started : float }

let now_ns () = Unix.gettimeofday () *. 1e9

let make_span name = { sp_name = name; sp_elapsed_ns = 0.0; sp_metrics = []; sp_children = [] }

let create ?(name = "root") () = { current = make_span name; started = now_ns () }
let root (s : scope) = s.current

(* Close the scope's span: set its elapsed time to now - start. [span]
   does this automatically for children; [finish] is for root scopes. *)
let finish (s : scope) = s.current.sp_elapsed_ns <- now_ns () -. s.started

(* ---- spans ---- *)

(* Run [f] in a fresh child span of [s] named [name], timing it. The child
   scope is passed to [f] so stages can nest and attach metrics. The span
   is recorded even when [f] raises (partial pipelines still profile). *)
let span (s : scope) name (f : scope -> 'a) : 'a =
  let child = make_span name in
  s.current.sp_children <- child :: s.current.sp_children;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () -> child.sp_elapsed_ns <- now_ns () -. t0)
    (fun () -> f { current = child; started = t0 })

(* Optional-scope variant: the flow threads [scope option] so the
   un-profiled path pays nothing. *)
let span_opt (s : scope option) name (f : scope option -> 'a) : 'a =
  match s with None -> f None | Some s -> span s name (fun c -> f (Some c))

(* Graft an independently recorded (finished) span tree under the
   scope's current span. This is how the parallel driver merges
   per-worker scopes deterministically: each worker records into its
   own scope (scopes are single-domain cursors, never shared), and the
   joining domain attaches the finished roots in task order. *)
let attach (s : scope) (sp : span) = s.current.sp_children <- sp :: s.current.sp_children

(* ---- metrics ---- *)

let set_metric (s : scope) key m =
  s.current.sp_metrics <- (key, m) :: List.remove_assoc key s.current.sp_metrics

let metric_int s key v = set_metric s key (M_int v)
let metric_float s key v = set_metric s key (M_float v)
let metric_str s key v = set_metric s key (M_str v)

(* Counter: accumulate into an int metric (creates it at 0). *)
let incr s key ?(by = 1) () =
  let prev = match List.assoc_opt key s.current.sp_metrics with Some (M_int i) -> i | _ -> 0 in
  set_metric s key (M_int (prev + by))

let incr_opt s key ?(by = 1) () = Option.iter (fun s -> incr s key ~by ()) s

let metric_int_opt s key v = Option.iter (fun s -> metric_int s key v) s
let metric_str_opt s key v = Option.iter (fun s -> metric_str s key v) s

(* ---- queries (used by tests and the CI schema check) ---- *)

let metrics sp = List.rev sp.sp_metrics
let children sp = List.rev sp.sp_children

let get_int sp key =
  match List.assoc_opt key sp.sp_metrics with Some (M_int i) -> Some i | _ -> None

let get_str sp key =
  match List.assoc_opt key sp.sp_metrics with Some (M_str s) -> Some s | _ -> None

(* All spans, pre-order. *)
let rec all_spans sp = sp :: List.concat_map all_spans (children sp)

(* First span with [name], depth-first. *)
let find_span sp name = List.find_opt (fun s -> s.sp_name = name) (all_spans sp)

let find_spans sp name = List.filter (fun s -> s.sp_name = name) (all_spans sp)

(* Generic span names: per-functionality spans are "func:NAME", so the
   schema collapses them to a stable "func:*" entry. *)
let generic_name n =
  match String.index_opt n ':' with
  | Some i -> String.sub n 0 i ^ ":*"
  | None -> n

(* The metric-name schema of a span tree: every "span.metric" pair plus
   every span name, sorted and distinct. This is the contract CI diffs
   against the checked-in schema file. *)
let schema sp =
  let names = ref [] in
  let add n = if not (List.mem n !names) then names := n :: !names in
  List.iter
    (fun s ->
      let base = generic_name s.sp_name in
      add ("span " ^ base);
      List.iter (fun (k, _) -> add (Printf.sprintf "metric %s.%s" base k)) (metrics s))
    (all_spans sp);
  List.sort compare !names

(* ---- validation (CI gate: no empty or non-finite metrics) ---- *)

exception Invalid_metrics of string

let validate sp =
  List.iter
    (fun s ->
      if s.sp_name = "" then raise (Invalid_metrics "empty span name");
      if not (Float.is_finite s.sp_elapsed_ns) || s.sp_elapsed_ns < 0.0 then
        raise (Invalid_metrics (Printf.sprintf "non-finite elapsed time in span %s" s.sp_name));
      List.iter
        (fun (k, m) ->
          if k = "" then raise (Invalid_metrics ("empty metric name in span " ^ s.sp_name));
          match m with
          | M_float f when not (Float.is_finite f) ->
              raise
                (Invalid_metrics (Printf.sprintf "non-finite metric %s.%s" s.sp_name k))
          | _ -> ())
        (metrics s))
    (all_spans sp)

(* ---- JSON rendering ---- *)

(* Floats go through the one Json number rule: a non-finite value
   renders as 0, so the output always parses. *)
let rec json sp =
  let metric = function
    | M_int i -> Json.int i
    | M_float f -> Json.Num f
    | M_str s -> Json.Str s
  in
  Json.Obj
    [
      ("name", Json.Str sp.sp_name);
      ("elapsed_ms", Json.Num (sp.sp_elapsed_ns /. 1e6));
      ("metrics", Json.Obj (List.map (fun (k, m) -> (k, metric m)) (metrics sp)));
      ("children", Json.Arr (List.map json (children sp)));
    ]

let to_json sp = Json.to_string (json sp)

(* ---- pretty rendering (the CLI `--profile` tree) ---- *)

let pp_metric fmt = function
  | M_int i -> Format.fprintf fmt "%d" i
  | M_float f -> Format.fprintf fmt "%.3f" f
  | M_str s -> Format.fprintf fmt "%s" s

let rec pp_span ?(indent = 0) fmt sp =
  Format.fprintf fmt "%s%-*s %8.3f ms" (String.make indent ' ')
    (max 1 (28 - indent)) sp.sp_name (sp.sp_elapsed_ns /. 1e6);
  List.iter (fun (k, m) -> Format.fprintf fmt "  %s=%a" k pp_metric m) (metrics sp);
  Format.fprintf fmt "\n";
  List.iter (fun c -> pp_span ~indent:(indent + 2) fmt c) (children sp)

let pp fmt sp = pp_span ~indent:0 fmt sp
let to_pretty sp = Format.asprintf "%a" pp sp
