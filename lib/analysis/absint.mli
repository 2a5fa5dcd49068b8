(** Bit-level abstract interpretation over MIR: a reduced product of
    known bits and the {!Dataflow.ranges} intervals.

    One fact per SSA value, computed forward on the {!Dataflow} engine
    (with interval widening at the type bounds, so fixpoints are linear
    in the number of uses — see docs/NARROWING.md):

    - {e known bits}: each bit of the value's two's-complement pattern at
      its own width is 0, 1, or unknown — encoded as a known-mask [bk]
      and the values [bv] of the known bits ([bv] a submask of [bk]);
    - {e interval}: the numeric range of {!Dataflow.ranges}, reused
      verbatim.

    The transfer functions are sound for both MIR algebras: the wrapping
    signless [comb] dialect and the non-wrapping signed/unsigned
    [hwarith] dialect (whose result patterns coincide with mod-2^w
    arithmetic on sign-extended operand patterns, because its result
    types are wide enough to never overflow). Fully known [comb] ops are
    folded through {!Ir.Comb_eval}, the single concrete semantics — so
    on pinned inputs the analysis agrees with evaluation by construction.

    Consumers: the narrowing passes ({!Narrow}), the bit-level lints
    W1008–W1010 ({!Lint}). *)

(** Known bits of a pattern: [bk] = mask of known positions, [bv] = their
    values (a submask of [bk]); both non-negative, below 2^width. *)
type bits = { bk : Bitvec.Bn.t; bv : Bitvec.Bn.t }

type fact = { f_bits : bits; f_range : Dataflow.range }

type t = fact option
(** Per-value lattice element; [None] is bottom (no execution reaches). *)

val top_bits : bits
(** No bit known. *)

val mask : int -> Bitvec.Bn.t
(** [mask w] = 2^w - 1. *)

val fully_known : int -> bits -> bool

val known_const : int -> Bitvec.Bn.t -> bits
(** All [w] bits pinned to the given pattern (reduced mod 2^w). *)

val bits_join : bits -> bits -> bits
val bits_equal : bits -> bits -> bool

val known_count : width:int -> bits -> int
(** Number of known bit positions. *)

val leading_known : width:int -> bits -> int
(** Length of the known run starting at the most significant bit. *)

val bits_value : Bitvec.ty -> bits -> Bitvec.Bn.t option
(** The numeric value, when every bit is known, decoded under the type's
    signedness. *)

val bits_from_range : Bitvec.ty -> Dataflow.range -> bits
(** The bits pinned by an interval alone (the common high-bit prefix of
    the endpoint patterns, when the interval does not cross zero). Used
    by lint W1010 to tell structural knowledge from genuine stuck bits. *)

val spec : t Dataflow.spec
(** The product analysis as a reusable {!Dataflow} spec. *)

type result

val analyze : Ir.Mir.graph -> result
(** Run to fixpoint. Raises {!Dataflow.Diverged} only if the safety-net
    budget is exceeded (a bug — widening bounds the real iteration
    count). *)

val fact_of : result -> Ir.Mir.value -> fact option
val iterations : result -> int

val decide_bool : fact -> bool option
(** Decide a 1-bit value from either half of the product. *)
