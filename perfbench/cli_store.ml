(* cli_store: one `longnail compile ... --store STORE` subprocess at a
   time in a closed loop, against one store directory made at set-up.
   One op in four compiles a sparkle source whose round constant no
   earlier op used (every structural key misses); the rest repeat an
   earlier (source, core) pair and must be served from the store. Only
   this path pays process start-up, argument parsing, the RV32I+ISAX
   frontend and a disk read before producing output. *)

open Common

let name = "cli_store"
let sparkle = Isax.Registry.find_exn "sparkle"
let sparkle_constant = "0xb7e15162"

(* The bundled sparkle source with its round constant replaced. *)
let sparkle_variant k =
  let src = sparkle.source and needle = sparkle_constant in
  let b = Buffer.create (String.length src) in
  let nl = String.length needle in
  let i = ref 0 in
  while !i < String.length src do
    if !i + nl <= String.length src && String.sub src !i nl = needle then begin
      Buffer.add_string b (Printf.sprintf "0x%08x" k);
      i := !i + nl
    end
    else begin
      Buffer.add_char b src.[!i];
      incr i
    end
  done;
  Buffer.contents b

type op = Fresh of int * string  (** fresh-source index, core slug *) | Repeat of int

(* Each fresh source: its round constant and its core slug. *)
type source = { constant : int; core : string }

type t = {
  dir : string;
  store : string;
  cli : string;
  ops : op array;
  sources : source array;
  trace : bool;
  max_ops : int option;
  mutable n : int;  (** ops run so far *)
  mutable failed : int;
  mutable cold : (string * float) list;  (** (core slug, seconds) per checked fresh op *)
  mutable warm : (string * float) list;  (** (core slug, seconds) per checked repeat *)
  mutable produced : (int * int * string) list;
      (** per op: its number, the source it compiled, its output digest *)
}

let max_ops = 4096

let setup (env : env) =
  let st = rng ~seed:env.seed ~salt:2 in
  let slugs = Array.of_list (Scaiev.Core_registry.slugs ()) in
  let used = Hashtbl.create 1024 in
  let sources = ref [] and nfresh = ref 0 in
  let fresh () =
    let rec pick () =
      let k = rand32 st in
      if k = 0xb7e15162 || Hashtbl.mem used k then pick () else k
    in
    let k = pick () in
    Hashtbl.replace used k ();
    (* cores rotate so every run has the same core mix *)
    let core = slugs.(!nfresh mod Array.length slugs) in
    sources := { constant = k; core } :: !sources;
    incr nfresh;
    Fresh (!nfresh - 1, core)
  in
  (* blocks of four with the one fresh source at a seeded position (the
     first op is always fresh, so there is something to repeat) *)
  let ops =
    Array.concat
      (List.init (max_ops / 4) (fun b ->
           let at = if b = 0 then 0 else Random.State.int st 4 in
           Array.init 4 (fun i -> if i = at then fresh () else Repeat (Random.State.int st !nfresh))))
  in
  let dir = Filename.concat env.tmp "cli" in
  Unix.mkdir dir 0o755;
  let store = Filename.concat dir "store" in
  let sources = Array.of_list (List.rev !sources) in
  announce_ops ~path:name ~seed:env.seed
    (Array.to_list
       (Array.map
          (function
            | Fresh (i, core) -> Printf.sprintf "fresh 0x%08x %s" sources.(i).constant core
            | Repeat i -> Printf.sprintf "repeat %d" i)
          ops));
  {
    dir;
    store;
    cli = env.cli;
    ops;
    sources;
    trace = env.trace;
    max_ops = env.max_ops;
    n = 0;
    failed = 0;
    cold = [];
    warm = [];
    produced = [];
  }

let src_path t i = Filename.concat t.dir (Printf.sprintf "src%d.core_desc" i)

(* Canonical form of an output directory: sorted (file, bytes) pairs. *)
let canonical files =
  digest_hex
    (String.concat "\000"
       (List.concat_map (fun (f, s) -> [ f; s ]) (List.sort compare files)))

let dir_digest d =
  canonical (List.map (fun f -> (f, read_file (Filename.concat d f))) (Array.to_list (Sys.readdir d)))

let outputs_digest (o : Longnail.Flow.outputs) =
  canonical
    (("scaiev_config.yaml", o.o_yaml)
    :: List.map (fun (f : Longnail.Flow.output_func) -> (f.of_name ^ ".sv", f.of_sv)) o.o_funcs)

let store_line log =
  List.find_map
    (fun l ->
      try Scanf.sscanf l "disk-store: hits=%d misses=%d stores=%d" (fun h m s -> Some (h, m, s))
      with _ -> None)
    (String.split_on_char '\n' log)

let log t = Filename.concat t.dir "log"

let op t =
  let out = Filename.concat t.dir "out" in
  let i, fresh = match t.ops.(t.n) with Fresh (i, _) -> (i, true) | Repeat i -> (i, false) in
  t.n <- t.n + 1;
  let src = t.sources.(i) in
  if fresh then write_file (src_path t i) (sparkle_variant src.constant);
  let code, dt =
    run_process ~out:(log t) t.cli
      [ "compile"; "-c"; src.core; "-t"; sparkle.target; "-o"; out; src_path t i; "--store"; t.store ]
  in
  let report = store_line (read_file (log t)) in
  if code <> 0 || report <> Some (if fresh then (0, 1, 1) else (1, 0, 0)) then begin
    t.failed <- t.failed + 1;
    say "perfbench: %s: op %d (%s) exited %d, store report %s" name t.n
      (if fresh then "fresh" else "repeat") code
      (match report with
      | Some (h, m, s) -> Printf.sprintf "hits=%d misses=%d stores=%d" h m s
      | None -> "missing")
  end
  else begin
    if fresh then t.cold <- (src.core, dt) :: t.cold else t.warm <- (src.core, dt) :: t.warm;
    t.produced <- (t.n, i, dir_digest out) :: t.produced
  end;
  rm_rf out

let work t ~until =
  work_until ~until ~max_ops:t.max_ops ~count:(fun () -> t.n) (fun () ->
      if t.n < Array.length t.ops then op t else failwith "cli_store: op list exhausted")

let finish t =
  (* outside the timed region: every output must equal an in-process
     compile of the same (source, core) *)
  let reference = Hashtbl.create 256 in
  List.iter
    (fun (n, i, got) ->
      let want =
        match Hashtbl.find_opt reference i with
        | Some d -> d
        | None ->
            let src = t.sources.(i) in
            let tu =
              Coredsl.compile ~provider:Isax.Registry.provider ~target:sparkle.target
                (sparkle_variant src.constant)
            in
            let core = (Result.get_ok (Scaiev.Core_registry.resolve src.core)).datasheet in
            let d = outputs_digest (Longnail.Flow.compile_outputs Longnail.Flow.Request.default core tu) in
            Hashtbl.replace reference i d;
            d
      in
      if got <> want then begin
        t.failed <- t.failed + 1;
        say "perfbench: %s: op %d output differs from the in-process compile" name n
      end)
    t.produced;
  let layer =
    if not t.trace then []
    else begin
      (* the process-start floor: a CLI run that does no compile work *)
      let noop =
        List.init 15 (fun _ -> snd (run_process ~out:(log t) t.cli [ "cores"; "--names" ]))
      in
      [ m "cli.noop_ms_p50" "ms" (1e3 *. median noop) ]
    end
  in
  {
    attempted = t.n;
    failed = t.failed;
    e2e =
      [
        (* the cores are the op classes; the tail is raw *)
        m "cli_cold_ms_p50" "ms" (1e3 *. median (at_class_time t.cold));
        m "cli_warm_ms_p50" "ms" (1e3 *. median (at_class_time t.warm));
        m "cli_warm_ms_p90" "ms" (1e3 *. quantile 0.9 (List.map snd t.warm));
      ];
    layer;
  }

let teardown (_ : t) = ()
