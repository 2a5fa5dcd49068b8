(* Shared plumbing of the benchmark: the monotonic clock, order
   statistics, seeded randomness, child processes, the run's private
   temporary directory and the metric records every path returns. *)

module Json = Server.Json

(* ---- clock ---------------------------------------------------------- *)

let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* Words allocated so far by this domain (minor + major - promoted). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- statistics ----------------------------------------------------- *)

(* Linear-interpolation quantile (the usual "type 7" estimator). *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let h = q *. float_of_int (n - 1) in
      let lo = truncate h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* The time of one op class (one target, one program, one core): its
   fastest repeat in the run. The host is shared, and other tenants' load
   only ever adds time to an op, in bursts of up to seconds; the fastest
   repeat is the figure those bursts move least, and the one a faster
   program moves first. *)
let class_time = function [] -> nan | x :: xs -> List.fold_left Float.min x xs

(* [(class, seconds)] per op to each op's class time, in the same order:
   the latencies and rates of the run are taken over these. *)
let at_class_time pairs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, x) -> Hashtbl.replace tbl k (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    pairs;
  let times = Hashtbl.create 16 in
  Hashtbl.iter (fun k xs -> Hashtbl.replace times k (class_time xs)) tbl;
  List.map (fun (k, _) -> Hashtbl.find times k) pairs

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean = function [] -> nan | xs -> sum xs /. float_of_int (List.length xs)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ---- seeded inputs -------------------------------------------------- *)

(* Every path draws from its own stream, so adding ops to one path never
   shifts another path's inputs. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rand32 st = Random.State.bits st lor ((Random.State.bits st land 3) lsl 30)
let digest_hex s = Digest.to_hex (Digest.string s)

(* ---- filesystem and processes --------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Run [prog args] to completion with stdout and stderr sent to [out];
   returns the exit code and the wall time from spawn to reap. *)
let run_process ~out prog args =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd fd)
  in
  let _, status = Unix.waitpid [] pid in
  let dt = since_s t0 in
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  (code, dt)

(* ---- the run's environment and results ------------------------------ *)

type env = {
  seed : int;
  trace : bool;
  tmp : string;  (** private scratch directory, removed on every exit path *)
  cli : string;  (** the [longnail] executable *)
  expected : (string * string * string) list;  (** (isax, core, digest) *)
  max_ops : int option;  (** stop each path after this many ops (the smoke test) *)
}

let below_max max_ops n = match max_ops with Some m -> n < m | None -> true

(* Do [op ()] while the monotonic clock is before [until] (ns) and fewer
   than [max_ops] ops ([count ()]) have run. *)
let work_until ~until ~max_ops ~count op =
  while Int64.compare (now_ns ()) until < 0 && below_max max_ops (count ()) do
    op ()
  done

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** tracing-off metrics *)
  layer : metric list;  (** traced-run metrics (empty when not tracing) *)
}

let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Print the seed and a digest of a path's generated op list, so two runs
   with one seed can be shown to drive identical inputs. *)
let announce_ops ~path ~seed ops =
  say "perfbench: path=%s seed=%d ops=%d digest=%s" path seed (List.length ops)
    (digest_hex (String.concat "\n" ops))

(* ---- Obs trees ------------------------------------------------------ *)

(* Self time of a span: its elapsed time minus that of its children. *)
let self_ms (sp : Obs.span) =
  (sp.Obs.sp_elapsed_ns -. sum (List.map (fun c -> c.Obs.sp_elapsed_ns) sp.Obs.sp_children))
  /. 1e6

(* Fold every span of [root] into a name -> total self ms table. *)
let add_self_times tbl root =
  List.iter
    (fun sp ->
      let ms = Option.value (Hashtbl.find_opt tbl sp.Obs.sp_name) ~default:0.0 in
      Hashtbl.replace tbl sp.Obs.sp_name (ms +. self_ms sp))
    (Obs.all_spans root)

let metric_num (sp : Obs.span) key =
  match List.assoc_opt key (Obs.metrics sp) with
  | Some (Obs.M_int i) -> float_of_int i
  | Some (Obs.M_float f) -> f
  | _ -> 0.0

(* Sum of one metric over every span of the given name. *)
let sum_metric root ~span key =
  sum (List.map (fun sp -> metric_num sp key) (Obs.find_spans root span))

(* Rebuild an Obs span from the [Obs.to_json] rendering a daemon returns. *)
let rec span_of_json j =
  let num k = Option.value (Json.get_float (Json.member k j)) ~default:0.0 in
  let metrics =
    match Json.member "metrics" j with
    | Json.Obj l ->
        List.rev_map
          (fun (k, v) ->
            match v with
            | Json.Num f when Float.is_integer f -> (k, Obs.M_int (int_of_float f))
            | Json.Num f -> (k, Obs.M_float f)
            | v -> (k, Obs.M_str (Option.value (Json.get_string v) ~default:"")))
          l
    | _ -> []
  in
  {
    Obs.sp_name = Option.value (Json.get_string (Json.member "name" j)) ~default:"";
    sp_elapsed_ns = num "elapsed_ms" *. 1e6;
    sp_metrics = metrics;
    sp_children =
      List.rev_map span_of_json (Option.value (Json.get_list (Json.member "children" j)) ~default:[]);
  }
