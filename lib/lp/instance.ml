(* Persistent integer difference-system instances: the warm-start solver
   behind the re-schedules of a DSE sweep.

   [create] snapshots one {!Netopt.system}. The edge endpoints and the
   costs are structure and stay fixed; [update_weight] / [update_bounds]
   move the numbers that scheduling knobs move (a chain-breaker flip is
   an edge weight, a window change a bound). [resolve] runs
   {!Netopt.asap}, warm-started from the previous least element whenever
   the system only tightened since (every edge weight and lower bound no
   smaller: the relaxation then just repairs the entries the tightening
   moved, and provably converges to the exact least element a cold run
   computes), followed by {!Netopt.ascend} when some cost is negative.
   Warm and cold resolves therefore return identical value vectors; the
   QCheck properties in test_lp check them against the {!Lp.solve}
   oracle. *)

type klass = Difference | Netflow

let klass_name = function Difference -> "difference" | Netflow -> "netflow"

type stats = { is_resolves : int; is_warm_hits : int; is_bf_rounds : int }

let zero_stats = { is_resolves = 0; is_warm_hits = 0; is_bf_rounds = 0 }

let add_stats a b =
  {
    is_resolves = a.is_resolves + b.is_resolves;
    is_warm_hits = a.is_warm_hits + b.is_warm_hits;
    is_bf_rounds = a.is_bf_rounds + b.is_bf_rounds;
  }

type t = {
  sys : Netopt.system;  (* private copy, updated in place *)
  klass : klass;
  mutable prev : (int array * int array * int array) option;
      (* (edge weights, lower bounds, least element) of the last feasible
         resolve, for the monotone-tightening check *)
  mutable resolves : int;
  mutable warm_hits : int;
  bf_rounds : int ref;
}

let create (s : Netopt.system) =
  {
    sys =
      {
        edges = Array.copy s.edges;
        lower = Array.copy s.lower;
        upper = Array.copy s.upper;
        cost = Array.copy s.cost;
      };
    klass = (if Array.exists (fun c -> c < 0) s.cost then Netflow else Difference);
    prev = None;
    resolves = 0;
    warm_hits = 0;
    bf_rounds = ref 0;
  }

let classify t = t.klass
let nedges t = Array.length t.sys.edges

let update_weight t e w =
  if e < 0 || e >= nedges t then
    invalid_arg (Printf.sprintf "Lp.Instance.update_weight: edge %d of %d" e (nedges t));
  t.sys.edges.(e) <- { (t.sys.edges.(e)) with e_w = w }

let update_bounds t v ~lower ~upper =
  let n = Array.length t.sys.lower in
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Lp.Instance.update_bounds: var %d of %d" v n);
  t.sys.lower.(v) <- lower;
  t.sys.upper.(v) <- upper

let stats t =
  { is_resolves = t.resolves; is_warm_hits = t.warm_hits; is_bf_rounds = !(t.bf_rounds) }

(* Uppers only gate feasibility and never move the least element, so
   they are free to change between warm resolves. *)
let resolve t =
  t.resolves <- t.resolves + 1;
  let w = Array.map (fun (e : Netopt.edge) -> e.e_w) t.sys.edges in
  let lo = Array.copy t.sys.lower in
  let no_smaller prev now = Array.for_all2 (fun old v -> v >= old) prev now in
  let init =
    match t.prev with
    | Some (prev_w, prev_lo, least) when no_smaller prev_w w && no_smaller prev_lo lo ->
        t.warm_hits <- t.warm_hits + 1;
        Some least
    | _ -> None
  in
  match Netopt.asap ?init ~rounds:t.bf_rounds t.sys with
  | None ->
      t.prev <- None;
      `Infeasible
  | Some least -> (
      t.prev <- Some (w, lo, Array.copy least);
      match t.klass with
      | Difference -> `Optimal least
      | Netflow -> (
          match Netopt.ascend t.sys least with
          | sol -> `Optimal sol
          | exception Netopt.Unbounded -> `Unbounded))
