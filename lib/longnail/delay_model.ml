(* Physical delay model for scheduling.

   The paper currently assumes uniform delays ("we plan to leverage an
   actual target-specific technology library in the future"); we use a
   slightly richer width-aware linear model calibrated against typical
   22nm standard-cell data so that chaining produces realistic pipeline
   depths (e.g. the 32-iteration sqrt spans about 10 stages, Section 5.4).
   All delays in nanoseconds. *)

type t = { op_delay : string -> int -> float  (* op name, result width *) }

let default_op_delay op w =
  let fw = float_of_int w in
  match op with
  | "hw.constant" -> 0.0
  | "comb.extract" | "comb.concat" | "comb.replicate" -> 0.0 (* wiring *)
  | "comb.and" | "comb.or" | "comb.xor" -> 0.035
  | "comb.mux" -> 0.035
  | "comb.icmp_eq" | "comb.icmp_ne" | "comb.icmp_ult" | "comb.icmp_ule" | "comb.icmp_ugt"
  | "comb.icmp_uge" | "comb.icmp_slt" | "comb.icmp_sle" | "comb.icmp_sgt" | "comb.icmp_sge" ->
      0.04 +. (0.0012 *. fw)
  | "comb.add" | "comb.sub" -> 0.04 +. (0.0012 *. fw)
  | "comb.shl" | "comb.shru" | "comb.shrs" -> 0.06 +. (0.001 *. fw)
  | "comb.mul" -> 0.12 +. (0.004 *. fw)
  | "comb.divu" | "comb.divs" | "comb.modu" | "comb.mods" -> 0.25 +. (0.008 *. fw)
  | "lil.rom" -> 0.22
  | _ -> 0.035 (* interface ops: pad/mux delay *)

(* width-aware physical model: the "more precise physical delays" the paper
   names as future work; available for the scheduler-ablation bench and
   used by the ASIC timing analysis *)
let physical = { op_delay = default_op_delay }

(* Uniform model (the paper's default): every *logic* operator costs the
   same delay; wiring (extract/concat/replicate) and constants are free,
   as in CIRCT's chaining support. *)
let uniform d =
  {
    op_delay =
      (fun op _ ->
        match op with
        | "hw.constant" | "comb.extract" | "comb.concat" | "comb.replicate" -> 0.0
        | _ -> d);
  }

(* The paper's setting: "we currently assume uniform delays ... for logic
   and non-combinational sub-interface operations". The scheduler therefore
   over-packs stages relative to the true physical delays, which is what
   produces the Table 4 frequency regressions on cores with narrow
   interface windows (Section 5.4). *)
let default = uniform 0.14  (* overridden per core by Flow *)

(* Declarative model selection. [t] holds a closure and therefore cannot
   be fingerprinted by the artifact cache; [spec] is the stable,
   key-able description that the Flow session stores in its stage keys
   and resolves to a [t] only at scheduling time. *)
type spec =
  | Default  (** uniform, cycle-time-derived delay (the paper's setting) *)
  | Uniform of float  (** uniform delay in ns for every logic op *)
  | Physical  (** the width-aware 22nm linear model *)
  | Custom of string * t
      (** escape hatch: caller-provided model under a caller-chosen
          cache key — the caller owns key uniqueness *)

let spec_key = function
  | Default -> "default"
  | Uniform d -> Printf.sprintf "uniform:%h" d
  | Physical -> "physical"
  | Custom (k, _) -> "custom:" ^ k

(* [Default] allows ~14 chained logic operations per stage, which
   reproduces the paper's ~10-stage 32-iteration sqrt. *)
let resolve spec ~cycle_time_ns =
  match spec with
  | Default -> uniform (cycle_time_ns /. 14.0)
  | Uniform d -> uniform d
  | Physical -> physical
  | Custom (_, t) -> t
