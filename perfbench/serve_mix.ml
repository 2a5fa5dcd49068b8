(* serve_mix: one `longnail serve --socket S --store D` daemon started at
   set-up, driven over two connections in a closed loop (each connection
   sends its next request when the previous done-event arrives). The
   seeded mix: repeats of a pre-warmed pool of registry-ISAX compiles
   (disk hits), compiles whose cycle-time no earlier request used (IR hit,
   re-schedule), inline-text compiles with a fresh sparkle constant (every
   key misses), lint requests and a small share of single-core dse
   requests on fresh text. *)

open Common

let name = "serve_mix"
let connections = 2

type source = Isax of string | Text of int  (** sparkle with this round constant *)

type op = {
  kind : [ `Repeat | `Knob | `Fresh | `Lint | `Dse ];
  src : source;
  cores : string list;
  knobs : (string * Json.t) list;
}

let knob_variants =
  [
    [];
    [ ("cycle-time", Json.Num 3.0) ];
    [ ("cycle-time", Json.Num 5.0) ];
    [ ("scheduler", Json.Str "asap") ];
    [ ("narrow", Json.Str "on") ];
    [ ("emit", Json.Str "v2001") ];
  ]

let target_of = function
  | Isax n -> (Isax.Registry.find_exn n).target
  | Text _ -> Cli_store.sparkle.target

let request ~id ~profile op =
  let unit_fields =
    match op.src with
    | Isax n -> [ ("isax", Json.Str n) ]
    | Text k ->
        [ ("text", Json.Str (Cli_store.sparkle_variant k)); ("target", Json.Str Cli_store.sparkle.target) ]
  in
  let opname = match op.kind with `Lint -> "lint" | `Dse -> "dse" | _ -> "compile" in
  let core_fields =
    match (op.kind, op.cores) with
    | `Lint, _ -> []
    | `Dse, [ c ] -> [ ("core", Json.Str c) ]
    | _, cs -> [ ("cores", Json.Arr (List.map (fun c -> Json.Str c) cs)) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Num (float_of_int id)); ("op", Json.Str opname) ]
       @ unit_fields @ core_fields
       @ (if op.knobs = [] then [] else [ ("knobs", Json.Obj op.knobs) ])
       @ if profile && opname = "compile" then [ ("profile", Json.Bool true) ] else []))

let describe op = request ~id:0 ~profile:false op

(* What one connection saw for one op: its answer in comparable form (not
   the response itself, whose SV would pile up over a run) and, when
   tracing, the daemon's profile tree. *)
type reply = {
  r_op : int;
  r_lat : float;
  r_bytes : int;
  r_ok : bool;
  r_answer : string;
  r_profile : Obs.span option;
}

type t = {
  dir : string;
  socket : string;
  daemon : int;
  pool : op array;
  ops : op array;
  trace : bool;
  max_ops : int option;
  clients : Server.Client.t list;  (** one per connection *)
  next : int Atomic.t;  (** the next op to send *)
  mutable replies : reply list;
}

let max_ops = 300 * 128

(* Send one request and read every response line through its done-event:
   (raw response bytes, parsed lines). *)
let exchange client line =
  Server.Client.send client line;
  let rec go bytes acc =
    match Server.Client.recv client with
    | None -> failwith "daemon closed the connection"
    | Some l -> (
        let j = Result.get_ok (Json.parse l) in
        let bytes = bytes + String.length l + 1 in
        match Json.get_string (Json.member "event" j) with
        | Some "done" -> (bytes, List.rev (j :: acc))
        | _ -> go bytes (j :: acc))
  in
  go 0 []

let ok_done lines =
  Json.get_bool (Json.member "ok" (List.nth lines (List.length lines - 1))) = Some true

let stats client =
  let _, lines = exchange client {|{"op":"stats"}|} in
  let disk = Json.member "disk" (List.hd lines) in
  let get k = Option.value (Json.get_int (Json.member k disk)) ~default:0 in
  (get "hits", get "misses", get "bytes")

let setup (env : env) =
  let st = rng ~seed:env.seed ~salt:3 in
  let slugs = Array.of_list (Scaiev.Core_registry.slugs ()) in
  let isaxes = Array.of_list (List.map (fun (e : Isax.Registry.entry) -> e.name) Isax.Registry.all) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let two_cores () =
    let a = pick slugs in
    let rec other () = let b = pick slugs in if b = a then other () else b in
    [ a; other () ]
  in
  (* one pool entry per bundled ISAX with a fixed knob variant and core
     count, so every seed warms the same amount of work at set-up *)
  let pool =
    Array.mapi
      (fun i n ->
        {
          kind = `Repeat;
          src = Isax n;
          cores = (if i mod 2 = 0 then [ pick slugs ] else two_cores ());
          knobs = List.nth knob_variants (i mod List.length knob_variants);
        })
      isaxes
  in
  let constants = Hashtbl.create 256 and cycle_times = Hashtbl.create 256 in
  let rec fresh_constant () =
    let k = rand32 st in
    if k = 0xb7e15162 || Hashtbl.mem constants k then fresh_constant ()
    else (Hashtbl.replace constants k (); k)
  in
  (* a cycle time (ps) no earlier request used, so the sched key misses *)
  let rec fresh_cycle_time () =
    let ps = 2500 + Random.State.int st 5500 in
    if ps = 3000 || ps = 5000 || Hashtbl.mem cycle_times ps then fresh_cycle_time ()
    else (Hashtbl.replace cycle_times ps (); float_of_int ps /. 1000.0)
  in
  (* fresh sources and dse requests each rotate over the cores, so every
     run has the same core mix *)
  let nfresh = ref 0 and ndse = ref 0 in
  let next_core n = incr n; slugs.(!n mod Array.length slugs) in
  let op = function
    | `Repeat -> pool.(Random.State.int st (Array.length pool))
    | `Knob ->
        let knobs = [ ("cycle-time", Json.Num (fresh_cycle_time ())) ] in
        { kind = `Knob; src = Isax (pick isaxes); cores = [ pick slugs ]; knobs }
    | `Fresh -> { kind = `Fresh; src = Text (fresh_constant ()); cores = [ next_core nfresh ]; knobs = [] }
    | `Lint -> { kind = `Lint; src = Isax (pick isaxes); cores = []; knobs = [] }
    | `Dse -> { kind = `Dse; src = Text (fresh_constant ()); cores = [ next_core ndse ]; knobs = [] }
  in
  (* Blocks of 300 requests with an exact mix. Slow requests are rare
     enough that most cheap ones find the daemon idle (p50 sits in the
     cheap mode) and common enough that the slowest 1% are fresh compiles
     or requests queued behind a slow one (p99 sits in the slow mode).
     Each block opens with a dse request, so even a few-op run (the smoke
     test) sees every kind; the rest is shuffled. *)
  let rest =
    Array.of_list
      (List.init 2 (fun _ -> `Dse)
      @ List.init 3 (fun _ -> `Fresh)
      @ List.init 2 (fun _ -> `Knob)
      @ List.init 60 (fun _ -> `Lint)
      @ List.init 232 (fun _ -> `Repeat))
  in
  let ops =
    Array.concat
      (List.init (max_ops / 300) (fun _ -> Array.map op (Array.append [| `Dse |] (shuffle st rest))))
  in
  announce_ops ~path:name ~seed:env.seed (Array.to_list (Array.map describe ops));
  let dir = Filename.concat env.tmp "serve" in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let daemon =
    Unix.create_process env.cli
      [| env.cli; "serve"; "--socket"; socket; "--store"; Filename.concat dir "store" |]
      Unix.stdin log log
  in
  Unix.close log;
  let kill () =
    (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] daemon)
  in
  match
    let c = Server.Client.connect ~retries:200 ~retry_delay:0.01 socket in
    (* warm the pool: afterwards every repeat is a disk hit *)
    Array.iter
      (fun op ->
        if not (ok_done (snd (exchange c (request ~id:0 ~profile:false op)))) then
          failwith ("pool warm-up failed: " ^ describe op))
      pool;
    c :: List.init (connections - 1) (fun _ -> Server.Client.connect socket)
  with
  | clients ->
      {
        dir;
        socket;
        daemon;
        pool;
        ops;
        trace = env.trace;
        max_ops = env.max_ops;
        clients;
        next = Atomic.make 0;
        replies = [];
      }
  | exception ex ->
      kill ();
      raise ex

let reply_digest lines =
  let str k j = Option.value (Json.get_string (Json.member k j)) ~default:"" in
  digest_hex
    (String.concat "\000"
       (List.concat_map
          (fun j ->
            if str "event" j <> "target" then []
            else
              str "core" j :: str "yaml" j
              :: List.concat_map
                   (fun f -> [ str "name" f; str "sv" f ])
                   (Option.value (Json.get_list (Json.member "funcs" j)) ~default:[]))
          lines))

(* floats at the daemon's own "%.6g" precision *)
let point_key (p : Longnail.Dse.point) =
  Printf.sprintf "%s %s %.6g %b %.6g %.6g %d %d %b" p.dp_label
    (match p.dp_scheduler with Longnail.Sched_build.Ilp -> "ilp" | Asap -> "asap")
    p.dp_cycle_factor p.dp_physical p.dp_area_pct p.dp_freq_mhz p.dp_latency p.dp_pipe_bits
    p.dp_pareto

let reply_points lines =
  let d = List.nth lines (List.length lines - 1) in
  List.map
    (fun j ->
      let s k = Option.value (Json.get_string (Json.member k j)) ~default:"" in
      let f k = Option.value (Json.get_float (Json.member k j)) ~default:nan in
      let i k = Option.value (Json.get_int (Json.member k j)) ~default:(-1) in
      let bo k = Option.value (Json.get_bool (Json.member k j)) ~default:false in
      Printf.sprintf "%s %s %.6g %b %.6g %.6g %d %d %b" (s "label") (s "scheduler")
        (f "cycle_factor") (bo "physical") (f "area_pct") (f "freq_mhz") (i "latency")
        (i "pipe_bits") (bo "pareto"))
    (Option.value (Json.get_list (Json.member "points" d)) ~default:[])

let answer op lines =
  match op.kind with
  | `Lint -> Json.to_string (Json.member "diag" (List.nth lines (List.length lines - 1)))
  | `Dse -> String.concat "\n" (reply_points lines)
  | _ -> reply_digest lines

(* Both connections in a closed loop until [until]: each sends its next
   request when the previous done-event arrives. *)
let work t ~until =
  let worker c () =
    let replies = ref [] in
    let rec loop () =
      if Int64.compare (now_ns ()) until < 0 then begin
        let i = Atomic.fetch_and_add t.next 1 in
        if below_max t.max_ops i then begin
          if i >= Array.length t.ops then failwith "serve_mix: op list exhausted";
          let line = request ~id:i ~profile:t.trace t.ops.(i) in
          let (bytes, lines), lat = timed (fun () -> exchange c line) in
          let last = List.nth lines (List.length lines - 1) in
          let reply =
            {
              r_op = i;
              r_lat = lat;
              r_bytes = bytes;
              r_ok = ok_done lines;
              r_answer = answer t.ops.(i) lines;
              r_profile =
                (match Json.member "profile" last with Json.Null -> None | p -> Some (span_of_json p));
            }
          in
          replies := reply :: !replies;
          loop ()
        end
      end
    in
    loop ();
    !replies
  in
  let ds = List.map (fun c -> Domain.spawn (worker c)) t.clients in
  t.replies <- List.concat_map Domain.join ds @ t.replies

(* ---- checking replies against in-process references ---------------- *)

let knob_flags op =
  List.fold_left
    (fun kf (k, v) ->
      let v = match v with Json.Str s -> Some s | Json.Num f -> Some (Json.number_to_string f) | _ -> None in
      Result.get_ok (Longnail.Knob_flags.set kf k v))
    Longnail.Knob_flags.default op.knobs

let unit_of = function
  | Isax n -> Isax.Registry.compile_by_name n
  | Text k ->
      Coredsl.compile ~provider:Isax.Registry.provider ~target:Cli_store.sparkle.target
        (Cli_store.sparkle_variant k)

let datasheet slug = (Result.get_ok (Scaiev.Core_registry.resolve slug)).datasheet

let outputs_digest (outs : Longnail.Flow.outputs list) =
  digest_hex
    (String.concat "\000"
       (List.concat_map
          (fun (o : Longnail.Flow.outputs) ->
            o.o_core :: o.o_yaml
            :: List.concat_map (fun (f : Longnail.Flow.output_func) -> [ f.of_name; f.of_sv ]) o.o_funcs)
          outs))

(* The in-process answer for one op, as a comparable string. *)
let reference session op =
  let tu = unit_of op.src in
  match op.kind with
  | `Lint -> Json.to_string (Result.get_ok (Json.parse (Diag.to_json (Analysis.Lint.lint_unit tu))))
  | `Dse ->
      let measure c =
        let r = Asic.Flow.run ~isax_name:(target_of op.src) c in
        (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
      in
      let points =
        Longnail.Dse.explore ~request:(Longnail.Flow.Request.make ~session:(Longnail.Flow.create_session ()) ()) ~measure
          (datasheet (List.hd op.cores)) tu
      in
      String.concat "\n" (List.map point_key points)
  | _ ->
      let request = Longnail.Knob_flags.request ~session (knob_flags op) in
      outputs_digest
        (List.map (fun c -> Longnail.Flow.compile_outputs request (datasheet c) tu) op.cores)

let finish t =
  let replies = t.replies in
  let hits, misses, bytes = stats (List.hd t.clients) in
  let failed = ref 0 in
  let fail r fmt =
    incr failed;
    Printf.ksprintf (fun s -> say "perfbench: %s: op %d: %s" name r.r_op s) fmt
  in
  (* outside the timed region: each answer against an in-process run *)
  let session = Longnail.Flow.create_session () in
  let memo = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let op = t.ops.(r.r_op) in
      if not r.r_ok then fail r "done-event is not ok"
      else
        let want =
          match Hashtbl.find_opt memo op with
          | Some w -> w
          | None ->
              let w = reference session op in
              Hashtbl.replace memo op w;
              w
        in
        if r.r_answer <> want then fail r "answer differs from the in-process run")
    replies;
  (* disk hits and misses must match each op's kind: per op from the
     profile tree when tracing, in total from the daemon's stats otherwise *)
  let n_targets kinds =
    List.fold_left
      (fun acc r ->
        let op = t.ops.(r.r_op) in
        if List.mem op.kind kinds then acc + List.length op.cores else acc)
      0 replies
  in
  let pool_targets = Array.fold_left (fun a op -> a + List.length op.cores) 0 t.pool in
  let want_hits = n_targets [ `Repeat ] and want_misses = n_targets [ `Knob; `Fresh ] + pool_targets in
  if not t.trace then begin
    if hits <> want_hits || misses <> want_misses then begin
      incr failed;
      say "perfbench: %s: daemon disk hits=%d misses=%d, expected hits=%d misses=%d" name hits misses
        want_hits want_misses
    end
  end;
  let lat kinds =
    List.filter_map (fun r -> if List.mem t.ops.(r.r_op).kind kinds then Some r.r_lat else None) replies
  in
  let latency = lat [ `Repeat; `Knob; `Fresh; `Lint ] in
  (* a dse request's time is the class time of its core (dse requests
     rotate over the cores); the other figures are raw, as the queueing of
     two connections at the one daemon belongs to what they measure *)
  let dse =
    at_class_time
      (List.filter_map
         (fun r -> match t.ops.(r.r_op) with { kind = `Dse; cores; _ } -> Some (cores, r.r_lat) | _ -> None)
         replies)
  in
  let total_lat = sum (List.map (fun r -> r.r_lat) replies) in
  let e2e =
    [
      (* closed loop over [connections]: completed requests per second of
         connection time *)
      m "serve_req_per_s" "1/s" (ratio (float_of_int (connections * List.length replies)) total_lat);
      m "serve_latency_ms_p50" "ms" (1e3 *. median latency);
      m "serve_latency_ms_p99" "ms" (1e3 *. quantile 0.99 latency);
      m "serve_dse_ms_p50" "ms" (1e3 *. median dse);
    ]
  in
  let layer =
    if not t.trace then []
    else begin
      let profiled = List.filter_map (fun r -> Option.map (fun p -> (r, p)) r.r_profile) replies in
      List.iter
        (fun (r, root) ->
          let op = t.ops.(r.r_op) in
          let h = metric_num root "disk.hit" and mi = metric_num root "disk.miss" in
          let n = float_of_int (List.length op.cores) in
          let ok = if op.kind = `Repeat then h = n && mi = 0.0 else h = 0.0 && mi = n in
          if not ok then fail r "disk hit=%g miss=%g does not match the op kind" h mi)
        profiled;
      let roots = List.map snd profiled in
      let counter prefix k =
        List.concat_map Obs.all_spans roots
        |> List.filter (fun sp -> String.starts_with ~prefix sp.Obs.sp_name)
        |> List.map (fun sp -> metric_num sp k)
        |> sum
      in
      let hit_ratio span = let h = counter span "cache.hit" in ratio h (h +. counter span "cache.miss") in
      let disk_h = sum (List.map (fun r -> metric_num r "disk.hit") roots) in
      let disk_m = sum (List.map (fun r -> metric_num r "disk.miss") roots) in
      (* the daemon's frontend memo is keyed by the unit's source; it hits
         whenever an earlier request (warm-up included) named the same unit *)
      let seen = Hashtbl.create 64 in
      Array.iter (fun op -> Hashtbl.replace seen op.src ()) t.pool;
      let fe_hits = ref 0 in
      List.iter
        (fun r ->
          let src = t.ops.(r.r_op).src in
          if Hashtbl.mem seen src then incr fe_hits else Hashtbl.replace seen src ())
        (List.sort (fun a b -> compare a.r_op b.r_op) replies);
      let overhead =
        List.map (fun (r, root) -> 1e3 *. r.r_lat -. (root.Obs.sp_elapsed_ns /. 1e6)) profiled
      in
      [
        m "cache.frontend.hit_ratio" "ratio" (ratio (float_of_int !fe_hits) (float_of_int (List.length replies)));
        m "cache.ir.hit_ratio" "ratio" (hit_ratio "ir_artifact");
        m "cache.sched.hit_ratio" "ratio" (hit_ratio "sched_artifact");
        m "cache.target.hit_ratio" "ratio" (hit_ratio "target:");
        m "cache.disk.hit_ratio" "ratio" (ratio disk_h (disk_h +. disk_m));
        m "cache.disk.bytes" "B" (float_of_int bytes);
        m "server.overhead_ms_p50" "ms" (median overhead);
        m "server.response_bytes" "B" (mean (List.map (fun r -> float_of_int r.r_bytes) replies));
      ]
    end
  in
  { attempted = List.length replies; failed = !failed; e2e; layer }

let peak_rss_mb t = vm_hwm_mb t.daemon

let teardown t =
  List.iter (fun c -> try Server.Client.close c with _ -> ()) t.clients;
  (try Server.Client.shutdown_server t.socket with _ -> ());
  (* the daemon exits within its poll interval; never leave it running *)
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] t.daemon with
    | 0, _ when n > 0 -> Unix.sleepf 0.01; reap (n - 1)
    | 0, _ -> (try Unix.kill t.daemon Sys.sigkill with _ -> ()); ignore (Unix.waitpid [] t.daemon)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 300
