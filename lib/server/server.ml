(* The longnail serve daemon and its client helpers (see the .mli and
   docs/SERVE.md). One process keeps one Flow.session warm; requests
   arrive as single JSON lines on a Unix-domain socket and every request
   line produces target events plus exactly one done event. The loop is
   deliberately single-threaded: per-request parallelism comes from the
   request's worker domains (Flow.Request.jobs), so two requests never
   race on the shared session from the dispatch side. *)

module Json = Json

(* ---------------------------------------------------------------- *)
(* Daemon state                                                     *)
(* ---------------------------------------------------------------- *)

let protocol_version = 1

type conn = { c_fd : Unix.file_descr; c_buf : Buffer.t }

type t = {
  s_socket : string;
  s_listen : Unix.file_descr;
  s_session : Longnail.Flow.session;
  s_default_jobs : int;
  s_started : float;
  mutable s_conns : conn list;
  mutable s_requests : int;
  s_stop : bool Atomic.t;
}

let socket_path t = t.s_socket
let session t = t.s_session
let requests_served t = t.s_requests
let stop t = Atomic.set t.s_stop true

let create ?(jobs = 1) ~session ~socket () =
  if jobs < 1 then Diag.fatalf ~code:"E0911" "serve: jobs must be >= 1, got %d" jobs;
  (match Unix.stat socket with
  | st when st.Unix.st_kind = Unix.S_SOCK ->
      (* a socket file already exists: live daemon, or debris from a
         crashed one? probe with a connect before reclaiming *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX socket) with
        | () -> true
        | exception Unix.Unix_error (_, _, _) -> false
      in
      (try Unix.close probe with Unix.Unix_error (_, _, _) -> ());
      if live then
        Diag.fatalf ~code:"E0911" "another daemon is already serving on %s" socket;
      (try Unix.unlink socket with Unix.Unix_error (_, _, _) -> ())
  | _ ->
      Diag.fatalf ~code:"E0911" "refusing to replace existing non-socket file %s" socket
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind l (Unix.ADDR_UNIX socket) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close l with Unix.Unix_error (_, _, _) -> ());
      Diag.fatalf ~code:"E0911" "cannot bind %s: %s" socket (Unix.error_message e));
  Unix.listen l 64;
  {
    s_socket = socket;
    s_listen = l;
    s_session = session;
    s_default_jobs = jobs;
    s_started = Unix.gettimeofday ();
    s_conns = [];
    s_requests = 0;
    s_stop = Atomic.make false;
  }

(* ---------------------------------------------------------------- *)
(* Response assembly                                                *)
(* ---------------------------------------------------------------- *)

(* Every response line is one Json.t: diagnostics and profiles embed
   as values (Diag.json, Obs.json) and [handle_line] renders each line
   once. *)

(* a response line: the echoed request id, the event kind, the verdict,
   then the op-specific fields *)
let event ~id kind ~ok fields =
  Json.Obj (("id", id) :: ("event", Json.Str kind) :: ("ok", Json.Bool ok) :: fields)

let done_error ~id ds = event ~id "done" ~ok:false [ ("diag", Diag.json ds) ]

let bad_request ?(id = Json.Null) msg = done_error ~id [ Diag.make ~code:"E0910" msg ]

(* unknown core name in a compile/dse request: structurally well-formed,
   but the name resolves to no registered core (E0912, with the
   registry's suggestion list in the message) *)
let unknown_core ?(id = Json.Null) msg = done_error ~id [ Diag.make ~code:"E0912" msg ]

let core_error ~id = function
  | `Malformed m -> bad_request ~id m
  | `Unknown_core m -> unknown_core ~id m

(* ---------------------------------------------------------------- *)
(* Request decoding                                                 *)
(* ---------------------------------------------------------------- *)

(* A request's "knobs" object reuses the Knob_flags table verbatim:
   {"scheduler":"asap","cycle-time":3.5,"no-hazard-handling":true}.
   Strings and numbers are flag values, [true] is a bare flag, [false]
   and [null] mean absent. Cache/store flags are daemon-side
   configuration and are rejected over the wire.

   Errors are [(code option, message)]: most rejections are plain
   malformed requests (E0910) — an unknown knob name among them, answered
   by [Knob_flags.set] with the available names and a did-you-mean hint —
   but flags with their own diagnostic code ([Knob_flags.error_code] —
   unknown --emit backend names) keep it, so the client sees the same
   structured E0913 as the CLI. *)
let apply_knobs j =
  let set kf k v =
    match Longnail.Knob_flags.set kf k v with
    | Ok kf -> Ok kf
    | Error m -> Error (Longnail.Knob_flags.error_code k, m)
  in
  match j with
  | Json.Null -> Ok Longnail.Knob_flags.default
  | Json.Obj fields ->
      let folded =
        List.fold_left
          (fun acc (k, v) ->
            Result.bind acc (fun kf ->
                match v with
                | Json.Bool false | Json.Null -> Ok kf
                | Json.Str s -> set kf k (Some s)
                | Json.Num f -> set kf k (Some (Json.number_to_string f))
                | Json.Bool true -> set kf k None
                | Json.Arr _ | Json.Obj _ ->
                    Error
                      ( None,
                        Printf.sprintf "knob \"%s\" must be a string, number or boolean" k
                      )))
          (Ok Longnail.Knob_flags.default) fields
      in
      Result.bind folded (fun kf ->
          if
            kf.Longnail.Knob_flags.store_dir <> None
            || kf.store_budget_mb <> None || kf.cache_capacity <> None
            || not kf.cache_enabled
          then
            Error
              ( None,
                "cache/store knobs are daemon-side configuration; start the daemon with \
                 --store instead" )
          else Ok kf)
  | _ -> Error (None, "\"knobs\" must be an object of flag names to values")

(* render an apply_knobs rejection: structured code when the flag has
   one, otherwise a plain malformed-request error *)
let knob_error ~id = function
  | Some code, m -> done_error ~id [ Diag.make ~code m ]
  | None, m -> bad_request ~id m

let jobs_of t kf req =
  match Json.member "jobs" req with
  | Json.Null ->
      (* a "jobs" entry inside the knobs object also counts *)
      Ok
        (if kf.Longnail.Knob_flags.jobs <> 1 then kf.Longnail.Knob_flags.jobs
         else t.s_default_jobs)
  | j -> (
      match Json.get_int j with
      | Some n when n >= 1 -> Ok n
      | _ -> Error "\"jobs\" must be an integer >= 1")

let resolve_cores req =
  let names =
    match (Json.member "cores" req, Json.member "core" req) with
    | Json.Arr l, _ ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.Str s :: rest -> go (s :: acc) rest
          | _ -> Error "\"cores\" must be an array of core-name strings"
        in
        go [] l
    | Json.Null, Json.Str s -> Ok [ s ]
    | Json.Null, Json.Null -> Error "request needs \"core\" or \"cores\""
    | Json.Null, _ -> Error "\"core\" must be a core-name string"
    | _, _ -> Error "\"cores\" must be an array of core-name strings"
  in
  match names with
  | Error m -> Error (`Malformed m)
  | Ok [] -> Error (`Malformed "\"cores\" must not be empty")
  | Ok names ->
      (* name -> datasheet through the core registry: unknown names get
         the E0912 diagnostic carrying the same available-core list and
         did-you-mean suggestions as the CLI's --core converter *)
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match Scaiev.Core_registry.resolve n with
            | Ok d -> go (d.Scaiev.Core_registry.datasheet :: acc) rest
            | Error m -> Error (`Unknown_core m))
      in
      go [] names

(* The compile unit: either a registry ISAX by name or inline CoreDSL
   text with its elaboration target. Both funnel through the session's
   memoized frontend, so repeated requests skip parse/typecheck. *)
let resolve_unit t req =
  match Json.member "isax" req with
  | Json.Str name -> (
      match Isax.Registry.find name with
      | Some e -> (
          let key =
            Cache.Fp.digest (fun b ->
                Cache.Fp.add_string b "isax";
                Cache.Fp.add_string b e.Isax.Registry.name;
                Cache.Fp.add_string b e.Isax.Registry.target;
                Cache.Fp.add_string b e.Isax.Registry.source)
          in
          match
            Longnail.Flow.frontend t.s_session ~key (fun () -> Isax.Registry.compile e)
          with
          | tu -> Ok (tu, name)
          | exception Diag.Fatal ds -> Error (`Diags ds))
      | None ->
          Error
            (`Bad
               (Printf.sprintf "unknown ISAX '%s' (available: %s)" name
                  (String.concat ", "
                     (List.map (fun (e : Isax.Registry.entry) -> e.name) Isax.Registry.all)))))
  | Json.Null -> (
      match (Json.member "text" req, Json.member "target" req) with
      | Json.Str src, Json.Str target -> (
          let file =
            match Json.get_string (Json.member "file" req) with
            | Some f -> f
            | None -> "<request>"
          in
          let key =
            Cache.Fp.digest (fun b ->
                Cache.Fp.add_string b file;
                Cache.Fp.add_string b target;
                Cache.Fp.add_string b src)
          in
          match
            Longnail.Flow.frontend t.s_session ~key (fun () ->
                match
                  Coredsl.compile_result ~provider:Isax.Registry.provider ~file ~target src
                with
                | Ok tu -> tu
                | Error ds -> raise (Diag.Fatal ds))
          with
          | tu -> Ok (tu, target)
          | exception Diag.Fatal ds -> Error (`Diags ds))
      | Json.Str _, _ -> Error (`Bad "\"text\" requires a \"target\" instruction-set name")
      | _ -> Error (`Bad "request needs \"isax\" (a registry name) or \"text\" + \"target\""))
  | _ -> Error (`Bad "\"isax\" must be a string")

(* ---------------------------------------------------------------- *)
(* Ops                                                              *)
(* ---------------------------------------------------------------- *)

let handle_ping id =
  [
    event ~id "done" ~ok:true
      [
        ("op", Json.Str "ping");
        ("protocol", Json.int protocol_version);
        ("pid", Json.int (Unix.getpid ()));
      ];
  ]

let handle_stats t id =
  let disk =
    match Longnail.Flow.session_disk t.s_session with
    | None -> Json.Null
    | Some d ->
        let st = Cache.Disk.stats d in
        Json.Obj
          [
            ("dir", Json.Str (Cache.Disk.dir d));
            ("entries", Json.int (Cache.Disk.length d));
            ("hits", Json.int st.Cache.Disk.hits);
            ("misses", Json.int st.Cache.Disk.misses);
            ("stores", Json.int st.Cache.Disk.stores);
            ("evictions", Json.int st.Cache.Disk.evictions);
            ("corrupt", Json.int st.Cache.Disk.corrupt);
            ("bytes", Json.int st.Cache.Disk.bytes);
          ]
  in
  [
    event ~id "done" ~ok:true
      [
        ("op", Json.Str "stats");
        ("uptime_s", Json.Num (Unix.gettimeofday () -. t.s_started));
        ("requests", Json.int t.s_requests);
        ("disk", disk);
      ];
  ]

let func_json (f : Longnail.Flow.output_func) =
  Json.Obj
    [
      ("name", Json.Str f.Longnail.Flow.of_name);
      ("kind", Json.Str f.of_kind);
      ("mode", Json.Str f.of_mode);
      ("max_stage", Json.int f.of_max_stage);
      ("sv", Json.Str f.of_sv);
    ]

(* Batch-first with per-target isolation: the batch shares the warmed IR
   and fans out worker domains, but one infeasible target poisons the
   whole Flow.compile_many call — so on Fatal, retry each target alone
   and report its own diagnostics while the healthy siblings answer. *)
let compile_targets request targets =
  match Longnail.Flow.compile_many_outputs ~request targets with
  | outs -> List.map Result.ok outs
  | exception Diag.Fatal _ ->
      List.map
        (fun ((core : Scaiev.Datasheet.t), tu) ->
          match
            Longnail.Flow.compile_outputs
              { request with Longnail.Flow.Request.jobs = 1 }
              core tu
          with
          | o -> Ok o
          | exception Diag.Fatal ds -> Error (core.Scaiev.Datasheet.core_name, ds))
        targets

let handle_compile t id req =
  match apply_knobs (Json.member "knobs" req) with
  | Error e -> [ knob_error ~id e ]
  | Ok kf -> (
      match jobs_of t kf req with
      | Error m -> [ bad_request ~id m ]
      | Ok jobs -> (
          match resolve_cores req with
          | Error e -> [ core_error ~id e ]
          | Ok cores -> (
              match resolve_unit t req with
              | Error (`Bad m) -> [ bad_request ~id m ]
              | Error (`Diags ds) -> [ done_error ~id ds ]
              | Ok (tu, _label) ->
                  let obs =
                    if Json.get_bool (Json.member "profile" req) = Some true then
                      Some (Obs.create ~name:"serve_request" ())
                    else None
                  in
                  let request =
                    Longnail.Knob_flags.request ~session:t.s_session ?obs
                      { kf with Longnail.Knob_flags.jobs }
                  in
                  let targets = List.map (fun core -> (core, tu)) cores in
                  let results = compile_targets request targets in
                  Option.iter Obs.finish obs;
                  let events =
                    List.map
                      (function
                        | Ok (o : Longnail.Flow.outputs) ->
                            event ~id "target" ~ok:true
                              [
                                ("core", Json.Str o.Longnail.Flow.o_core);
                                ("funcs", Json.Arr (List.map func_json o.o_funcs));
                                ("yaml", Json.Str o.o_yaml);
                              ]
                        | Error (core_name, ds) ->
                            event ~id "target" ~ok:false
                              [ ("core", Json.Str core_name); ("diag", Diag.json ds) ])
                      results
                  in
                  let failed = List.length (List.filter Result.is_error results) in
                  let profile_fields =
                    match obs with
                    | None -> []
                    | Some o -> [ ("profile", Obs.json (Obs.root o)) ]
                  in
                  let done_ev =
                    event ~id "done" ~ok:(failed = 0)
                      ([
                         ("op", Json.Str "compile");
                         ("targets", Json.int (List.length results));
                         ("failed", Json.int failed);
                       ]
                      @ profile_fields)
                  in
                  events @ [ done_ev ])))

let handle_lint t id req =
  match resolve_unit t req with
  | Error (`Bad m) -> [ bad_request ~id m ]
  | Error (`Diags ds) -> [ done_error ~id ds ]
  | Ok (tu, _label) ->
      let include_base = Json.get_bool (Json.member "include-base" req) = Some true in
      let werror = Json.get_bool (Json.member "werror" req) = Some true in
      let ds = Analysis.Lint.lint_unit ~include_base tu in
      let ds = if werror then Analysis.Lint.promote ds else ds in
      let ok = not (List.exists (fun (d : Diag.t) -> d.severity = Diag.Error) ds) in
      [
        event ~id "done" ~ok
          [
            ("op", Json.Str "lint");
            ("findings", Json.int (List.length ds));
            ("diag", Diag.json ds);
          ];
      ]

let point_json (p : Longnail.Dse.point) =
  Json.Obj
    [
      ("label", Json.Str p.Longnail.Dse.dp_label);
      ( "scheduler",
        Json.Str
          (match p.dp_scheduler with
          | Longnail.Sched_build.Ilp -> "ilp"
          | Longnail.Sched_build.Asap -> "asap") );
      ("cycle_factor", Json.Num p.dp_cycle_factor);
      ("physical", Json.Bool p.dp_physical);
      ("area_pct", Json.Num p.dp_area_pct);
      ("freq_mhz", Json.Num p.dp_freq_mhz);
      ("latency", Json.int p.dp_latency);
      ("pipe_bits", Json.int p.dp_pipe_bits);
      ("pareto", Json.Bool p.dp_pareto);
    ]

let handle_dse t id req =
  match apply_knobs (Json.member "knobs" req) with
  | Error e -> [ knob_error ~id e ]
  | Ok kf -> (
      match jobs_of t kf req with
      | Error m -> [ bad_request ~id m ]
      | Ok jobs -> (
          match resolve_cores req with
          | Error e -> [ core_error ~id e ]
          | Ok [ core ] -> (
              match resolve_unit t req with
              | Error (`Bad m) -> [ bad_request ~id m ]
              | Error (`Diags ds) -> [ done_error ~id ds ]
              | Ok (tu, label) ->
                  let request =
                    Longnail.Knob_flags.request ~session:t.s_session
                      { kf with Longnail.Knob_flags.jobs }
                  in
                  let measure c =
                    let r = Asic.Flow.run ~isax_name:label c in
                    (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
                  in
                  let points = Longnail.Dse.explore ~request ~measure core tu in
                  [
                    event ~id "done" ~ok:true
                      [
                        ("op", Json.Str "dse");
                        ("core", Json.Str core.Scaiev.Datasheet.core_name);
                        ("points", Json.Arr (List.map point_json points));
                      ];
                  ])
          | Ok _ -> [ bad_request ~id "\"op\":\"dse\" takes exactly one core" ]))

(* ---------------------------------------------------------------- *)
(* Dispatch                                                         *)
(* ---------------------------------------------------------------- *)

let handle_line t line =
  let line = String.trim line in
  if line = "" then []
  else begin
    t.s_requests <- t.s_requests + 1;
    List.map Json.to_string
    @@
    match Json.parse line with
    | Error m -> [ bad_request (Printf.sprintf "malformed request JSON: %s" m) ]
    | Ok req -> (
        let id = Json.member "id" req in
        match Json.get_string (Json.member "op" req) with
        | None -> [ bad_request ~id "request needs an \"op\" string" ]
        | Some op -> (
            (* per-request isolation: nothing a request does may kill
               the daemon; unexpected exceptions become E0901 replies *)
            let run f =
              try f () with
              | Diag.Fatal ds -> [ done_error ~id ds ]
              | e ->
                  [
                    done_error ~id
                      [
                        Diag.make ~code:"E0901"
                          (Printf.sprintf "internal error handling '%s': %s" op
                             (Printexc.to_string e));
                      ];
                  ]
            in
            match op with
            | "ping" -> handle_ping id
            | "stats" -> run (fun () -> handle_stats t id)
            | "compile" -> run (fun () -> handle_compile t id req)
            | "lint" -> run (fun () -> handle_lint t id req)
            | "dse" -> run (fun () -> handle_dse t id req)
            | "shutdown" ->
                Atomic.set t.s_stop true;
                [ event ~id "done" ~ok:true [ ("op", Json.Str "shutdown") ] ]
            | op ->
                [
                  bad_request ~id
                    (Printf.sprintf
                       "unknown op '%s' (ops: ping, stats, compile, lint, dse, shutdown)" op);
                ]))
  end

(* ---------------------------------------------------------------- *)
(* Transport                                                        *)
(* ---------------------------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send_lines fd lines =
  List.iter
    (fun l ->
      write_all fd l 0 (String.length l);
      write_all fd "\n" 0 1)
    lines

let close_conn t c =
  t.s_conns <- List.filter (fun c' -> c'.c_fd <> c.c_fd) t.s_conns;
  try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ()

(* Cut complete lines out of the connection's pending buffer and answer
   each; a write failure (client went away) closes just that
   connection. *)
let process_buffered t c =
  let data = Buffer.contents c.c_buf in
  Buffer.clear c.c_buf;
  let n = String.length data in
  let pos = ref 0 in
  let alive = ref true in
  while !alive && !pos < n do
    match String.index_from_opt data !pos '\n' with
    | None ->
        Buffer.add_substring c.c_buf data !pos (n - !pos);
        pos := n
    | Some nl -> (
        let line = String.sub data !pos (nl - !pos) in
        pos := nl + 1;
        let replies = handle_line t line in
        match send_lines c.c_fd replies with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) ->
            close_conn t c;
            alive := false)
  done

let drain_conn t c =
  let bytes = Bytes.create 65536 in
  match Unix.read c.c_fd bytes 0 65536 with
  | 0 -> close_conn t c
  | k ->
      Buffer.add_subbytes c.c_buf bytes 0 k;
      process_buffered t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c

let serve t =
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let cleanup () =
    (match prev_sigpipe with
    | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ | Sys_error _ -> ())
    | None -> ());
    List.iter
      (fun c -> try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ())
      t.s_conns;
    t.s_conns <- [];
    (try Unix.close t.s_listen with Unix.Unix_error (_, _, _) -> ());
    try Unix.unlink t.s_socket with Unix.Unix_error (_, _, _) -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  while not (Atomic.get t.s_stop) do
    let fds = t.s_listen :: List.map (fun c -> c.c_fd) t.s_conns in
    match Unix.select fds [] [] 0.2 with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.s_listen then (
              match Unix.accept t.s_listen with
              | cfd, _ ->
                  t.s_conns <- { c_fd = cfd; c_buf = Buffer.create 256 } :: t.s_conns
              | exception Unix.Unix_error (_, _, _) -> ())
            else
              match List.find_opt (fun c -> c.c_fd = fd) t.s_conns with
              | Some c -> drain_conn t c
              | None -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ---------------------------------------------------------------- *)
(* Client                                                           *)
(* ---------------------------------------------------------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect ?(retries = 0) ?(retry_delay = 0.1) path =
    let rec go attempt =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
          { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          if attempt < retries then begin
            Unix.sleepf retry_delay;
            go (attempt + 1)
          end
          else
            Diag.fatalf ~code:"E0911" "cannot connect to %s: %s" path
              (Unix.error_message e)
    in
    go 0

  let close c =
    (try flush c.oc with Sys_error _ -> ());
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

  let send c line =
    try
      output_string c.oc line;
      output_char c.oc '\n';
      flush c.oc
    with Sys_error m -> Diag.fatalf ~code:"E0911" "send failed: %s" m

  let recv c =
    match input_line c.ic with
    | l -> Some l
    | exception End_of_file -> None
    | exception Sys_error m -> Diag.fatalf ~code:"E0911" "receive failed: %s" m

  let request c line =
    send c line;
    let rec collect acc =
      match recv c with
      | None ->
          Diag.fatalf ~code:"E0911"
            "server closed the connection before completing the response"
      | Some l -> (
          match Json.parse l with
          | Error m -> Diag.fatalf ~code:"E0911" "malformed response line: %s" m
          | Ok j ->
              let acc = j :: acc in
              if Json.get_string (Json.member "event" j) = Some "done" then List.rev acc
              else collect acc)
    in
    collect []

  let shutdown_server path =
    let c = connect path in
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    ignore (request c {|{"op":"shutdown"}|})
end
