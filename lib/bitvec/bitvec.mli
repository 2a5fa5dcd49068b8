(** Fixed-width two's-complement bit vectors of arbitrary width.

    This is the value domain of the whole tool flow: the CoreDSL type
    system (Section 2.3 of the paper), the reference interpreter, constant
    folding, and the RTL simulator all compute on {!t}. A value carries its
    CoreDSL type — width plus signedness — and its numeric value, kept
    canonical within the representable range of that type.

    All operators implement the bitwidth-aware CoreDSL semantics: results
    are wide enough that no over-/underflow can occur (e.g.
    [unsigned<5> + signed<4> : signed<7>]), and narrowing only happens
    through explicit {!cast}/{!trunc} calls. *)

(** Arbitrary-precision signed integers (sign-magnitude over base-2^30
    limbs); the numeric engine underneath this module. *)
module Bn = Bn

(** A CoreDSL integer type: [signed<width>] or [unsigned<width>]. *)
type ty = { width : int; signed : bool }

(** A typed value. The representation is exposed for pattern matching, but
    the invariant [in_range ty v] always holds for values built through
    this interface. *)
type t = { ty : ty; v : Bn.t }

(** Raised when a width is illegal or a value does not fit a type. *)
exception Width_error of string

(** {1 Types} *)

(** [ty ~width ~signed] builds a type; raises {!Width_error} if
    [width <= 0]. *)
val ty : width:int -> signed:bool -> ty

val unsigned_ty : int -> ty
val signed_ty : int -> ty

(** [unsigned<1>], the type of predicates and comparison results. *)
val bool_ty : ty

val ty_equal : ty -> ty -> bool
val pp_ty : Format.formatter -> ty -> unit

(** Renders like the surface syntax, e.g. ["signed<7>"]. *)
val ty_to_string : ty -> string

(** Smallest / largest representable value of a type. *)
val min_value_bn : ty -> Bn.t

val max_value_bn : ty -> Bn.t

(** Does the numeric value fit the type without wrapping? *)
val in_range : ty -> Bn.t -> bool

(** Reduce an arbitrary integer into the range of the type
    (two's-complement wrap-around). *)
val wrap : ty -> Bn.t -> Bn.t

(** Types of at most this many bits (62 on a 64-bit host) hold every
    value, and every unsigned bit pattern, in a native int. *)
val native_width : int

(** [wrap_native ty x] wraps the native int [x] into [ty], which must be
    at most {!native_width} bits wide: what {!wrap} does on native ints. *)
val wrap_native : ty -> int -> int

(** {1 Construction and access} *)

(** [make ty v] wraps [v] into [ty] (never fails). *)
val make : ty -> Bn.t -> t

(** [make_exact ty v] requires [v] to be representable; raises
    {!Width_error} otherwise. *)
val make_exact : ty -> Bn.t -> t

val of_int : ty -> int -> t
val of_int_exact : ty -> int -> t
val of_bn : ty -> Bn.t -> t
val to_bn : t -> Bn.t

(** Numeric value as a native int; fails for values beyond 62 bits. *)
val to_int : t -> int

val to_int_opt : t -> int option
val width : t -> int
val is_signed : t -> bool
val typ : t -> ty
val zero : ty -> t
val one : ty -> t
val is_zero : t -> bool

(** Structural equality: same type and same value. *)
val equal : t -> t -> bool

(** Numeric equality, ignoring the types. *)
val equal_value : t -> t -> bool

(** The unsigned bit pattern of the value at its width, in [0, 2^w). *)
val pattern : t -> Bn.t

(** Smallest unsigned type able to hold the non-negative value. *)
val fit_unsigned : Bn.t -> ty

(** {1 The CoreDSL operator type algebra}

    Result types of the bitwidth-aware operators (Section 2.3): wide
    enough that the operation can never over- or underflow. *)

(** The common super-type: every value of either argument type is
    representable. Mixing signedness yields a signed type one bit wider
    than the unsigned operand requires. *)
val union_ty : ty -> ty -> ty

val add_result_ty : ty -> ty -> ty

(** Subtraction can go negative, so the result is always signed. *)
val sub_result_ty : ty -> ty -> ty

val mul_result_ty : ty -> ty -> ty

(** One extra bit for signed division (min_int / -1). *)
val div_result_ty : ty -> ty -> ty

val rem_result_ty : 'a -> 'b -> 'a
val neg_result_ty : ty -> ty

(** Shifts keep the left operand's type (like CoreDSL). *)
val shl_result_ty : 'a -> 'b -> 'a

val shr_result_ty : 'a -> 'b -> 'a
val bitwise_result_ty : ty -> ty -> ty

(** Concatenation is unsigned with the summed width. *)
val concat_result_ty : ty -> ty -> ty

(** {1 Arithmetic}

    These never wrap: the result carries the algebra's wider type. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Truncating division; raises [Division_by_zero]. *)
val div : t -> t -> t

val rem : t -> t -> t
val neg : t -> t

(** Bitwise complement at the operand's width (same type). *)
val lognot : t -> t

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** Shifts by a non-negative amount; the result has the left operand's
    type, so bits shifted beyond the width are dropped. *)
val shift_left : t -> int -> t

val shift_right : t -> int -> t

(** {1 Comparisons} — on numeric values, signedness-aware. *)

val compare_value : t -> t -> int
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val eq : t -> t -> bool
val ne : t -> t -> bool
val of_bool : bool -> t

(** [true] iff the value is non-zero. *)
val to_bool : t -> bool

(** {1 Structure: concatenation, slicing, replication} *)

(** [concat hi lo] joins bit patterns, [hi] in the upper bits. *)
val concat : t -> t -> t

(** [extract x ~hi ~lo] takes bits [hi..lo] of the pattern (unsigned
    result); raises {!Width_error} when out of range. *)
val extract : t -> hi:int -> lo:int -> t

(** Single-bit select, as a 1-bit unsigned value. *)
val bit : t -> int -> t

(** [replicate x n] repeats the pattern [n] times (n >= 1). *)
val replicate : t -> int -> t

(** {1 Casts} *)

(** C-style cast: truncates or sign-/zero-extends the pattern to the
    target type (CoreDSL's explicit cast). *)
val cast : ty -> t -> t

(** Reinterpret at the same width with the given signedness. *)
val reinterpret_sign : bool -> t -> t

(** Truncate/extend to [w] bits keeping the signedness. *)
val trunc : int -> t -> t

(** The legality rule for implicit assignments: every value of [src] must
    be representable in [dst] (Section 2.3's "no implicit information
    loss"). *)
val implicit_conv_ok : src:ty -> dst:ty -> bool

(** {1 Literals} *)

(** C-style literal ("42", "0xcafe"): unsigned with minimal width;
    negative literals become minimal signed values. *)
val of_literal : string -> t

(** Verilog-style sized literal, e.g. [~width:7 ~base:'d' ~digits:"13"]
    for [7'd13]. *)
val of_verilog_literal : width:int -> base:char -> digits:string -> t

(** {1 Printing} *)

val to_string : t -> string

(** ["0x.."] at the type's width (pattern, not numeric value). *)
val to_hex_string : t -> string

(** ["0b.."] at the type's width. *)
val to_bin_string : t -> string

(** Value and type, e.g. ["-3:signed<4>"]. *)
val pp : Format.formatter -> t -> unit
