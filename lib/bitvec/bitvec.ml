(* Fixed-width two's-complement bit vectors of arbitrary width.

   A value carries its CoreDSL type (width + signedness) and its numeric
   value, kept canonical within the representable range of that type.
   All operators implement the bitwidth-aware CoreDSL semantics: results are
   wide enough that no over-/underflow can occur, and narrowing only happens
   through explicit {!trunc}/{!cast} calls. *)

module Bn = Bn

type ty = { width : int; signed : bool }

type t = { ty : ty; v : Bn.t }

exception Width_error of string

let ty ~width ~signed =
  if width <= 0 then raise (Width_error (Printf.sprintf "illegal width %d" width));
  { width; signed }

let unsigned_ty w = ty ~width:w ~signed:false
let signed_ty w = ty ~width:w ~signed:true
let bool_ty = unsigned_ty 1

let ty_equal a b = a.width = b.width && a.signed = b.signed

let pp_ty fmt t =
  Format.fprintf fmt "%s<%d>" (if t.signed then "signed" else "unsigned") t.width

let ty_to_string t = Format.asprintf "%a" pp_ty t

(* Smallest / largest representable value of a type. *)
let min_value_bn t = if t.signed then Bn.neg (Bn.pow2 (t.width - 1)) else Bn.zero
let max_value_bn t = Bn.sub (Bn.pow2 (if t.signed then t.width - 1 else t.width)) Bn.one

let in_range t v = Bn.compare v (min_value_bn t) >= 0 && Bn.compare v (max_value_bn t) <= 0

(* Types of at most this many bits wrap on native ints: the unsigned
   range [0, 2^w) and the signed one both fit an OCaml int. *)
let native_width = Sys.int_size - 1

(* Two's-complement wrap of a native int into a type of at most
   [native_width] bits; [x] only matters modulo 2^w. *)
let wrap_native t x =
  let s = Sys.int_size - t.width in
  if t.signed then (x lsl s) asr s else x land ((1 lsl t.width) - 1)

(* Wrap an arbitrary integer into the range of [t] (two's-complement). A
   narrow type wraps the low bits of the value natively. *)
let wrap t v =
  if t.width <= native_width then begin
    let mag = v.Bn.mag and n = Array.length v.Bn.mag in
    let limb i = if i < n then mag.(i) else 0 in
    let low = limb 0 lor (limb 1 lsl Bn.limb_bits) lor (limb 2 lsl (2 * Bn.limb_bits)) in
    Bn.of_int (wrap_native t (if v.Bn.sign < 0 then -low else low))
  end
  else begin
    let m = Bn.mod_pow2 v t.width in
    if t.signed && Bn.compare m (Bn.pow2 (t.width - 1)) >= 0 then Bn.sub m (Bn.pow2 t.width) else m
  end

let make ty v = { ty; v = wrap ty v }

let make_exact ty v =
  if not (in_range ty v) then
    raise
      (Width_error
         (Printf.sprintf "value %s does not fit in %s" (Bn.to_string v) (ty_to_string ty)));
  { ty; v }

let of_int ty i =
  if ty.width <= native_width then { ty; v = Bn.of_int (wrap_native ty i) } else make ty (Bn.of_int i)
let of_int_exact ty i = make_exact ty (Bn.of_int i)
let of_bn = make
let to_bn x = x.v
let to_int x = Bn.to_int_exn x.v
let to_int_opt x = Bn.to_int_opt x.v
let width x = x.ty.width
let is_signed x = x.ty.signed
let typ x = x.ty

let zero ty = of_int ty 0
let one ty = of_int ty 1
let is_zero x = Bn.is_zero x.v

let equal a b = ty_equal a.ty b.ty && Bn.equal a.v b.v
let equal_value a b = Bn.equal a.v b.v

(* The unsigned bit pattern of [x] at its width, in [0, 2^w). *)
let pattern x = Bn.mod_pow2 x.v x.ty.width

(* Smallest unsigned type able to hold the value [v >= 0]. *)
let fit_unsigned v =
  let bits = max 1 (Bn.num_bits v) in
  unsigned_ty bits

(* ---- Type algebra (CoreDSL operator result types) ---- *)

(* The common super-type of [a] and [b]: every value of either type is
   representable. Mixing signedness forces a signed result one bit wider
   than the unsigned operand needs. *)
let union_ty a b =
  if a.signed = b.signed then { width = max a.width b.width; signed = a.signed }
  else begin
    let s, u = if a.signed then (a, b) else (b, a) in
    { width = max s.width (u.width + 1); signed = true }
  end

let add_result_ty a b =
  let u = union_ty a b in
  { u with width = u.width + 1 }

let sub_result_ty a b =
  (* Subtraction of unsigned values can go negative, so the result is
     always signed. *)
  let u = union_ty a b in
  { width = u.width + 1; signed = true }

let mul_result_ty a b = { width = a.width + b.width; signed = a.signed || b.signed }

let div_result_ty a b =
  (* signed division overflows only for min/-1, hence one extra bit. *)
  if a.signed || b.signed then { width = a.width + 1; signed = true } else a

let rem_result_ty a _b = a
let neg_result_ty a = { width = a.width + 1; signed = true }
let shl_result_ty a _b = a
let shr_result_ty a _b = a
let bitwise_result_ty a b = union_ty a b
let concat_result_ty a b = unsigned_ty (a.width + b.width)

(* ---- Arithmetic (never overflows: result types per the algebra above) ---- *)

let add a b = make_exact (add_result_ty a.ty b.ty) (Bn.add a.v b.v)
let sub a b = make_exact (sub_result_ty a.ty b.ty) (Bn.sub a.v b.v)
let mul a b = make_exact (mul_result_ty a.ty b.ty) (Bn.mul a.v b.v)

let div a b =
  if is_zero b then raise Division_by_zero;
  make_exact (div_result_ty a.ty b.ty) (fst (Bn.divmod a.v b.v))

let rem a b =
  if is_zero b then raise Division_by_zero;
  make_exact (rem_result_ty a.ty b.ty) (snd (Bn.divmod a.v b.v))

let neg a = make_exact (neg_result_ty a.ty) (Bn.neg a.v)

(* Bitwise complement at the operand's width (same type). *)
let lognot a =
  let p = pattern a in
  let np = Bn.sub (Bn.sub (Bn.pow2 a.ty.width) Bn.one) p in
  make a.ty np

let bitwise2 f a b =
  let t = bitwise_result_ty a.ty b.ty in
  let pa = Bn.mod_pow2 a.v t.width and pb = Bn.mod_pow2 b.v t.width in
  make t (Bn.bitwise f pa pb)

let logand = bitwise2 ( land )
let logor = bitwise2 ( lor )
let logxor = bitwise2 ( lxor )

let shift_left a k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative amount";
  (* every bit leaves the width: skip building the wide bignum shift *)
  if k >= a.ty.width then zero (shl_result_ty a.ty k)
  else make (shl_result_ty a.ty k) (Bn.shift_left a.v k)

let shift_right a k =
  if k < 0 then invalid_arg "Bitvec.shift_right: negative amount";
  make (shr_result_ty a.ty k) (Bn.shift_right a.v k)

(* ---- Comparisons (on numeric values; result is a 1-bit bool) ---- *)

let compare_value a b = Bn.compare a.v b.v
let lt a b = compare_value a b < 0
let le a b = compare_value a b <= 0
let gt a b = compare_value a b > 0
let ge a b = compare_value a b >= 0
let eq a b = compare_value a b = 0
let ne a b = compare_value a b <> 0

let of_bool b = of_int bool_ty (if b then 1 else 0)
let to_bool x = not (is_zero x)

(* ---- Structure: concat / slice / bit access / replicate ---- *)

let concat hi lo =
  let t = concat_result_ty hi.ty lo.ty in
  make t (Bn.add (Bn.shift_left (pattern hi) lo.ty.width) (pattern lo))

let extract x ~hi ~lo =
  if lo < 0 || hi < lo || hi >= x.ty.width then
    raise
      (Width_error (Printf.sprintf "extract [%d:%d] out of range for width %d" hi lo x.ty.width));
  let p = Bn.shift_right (pattern x) lo in
  make (unsigned_ty (hi - lo + 1)) (Bn.mod_pow2 p (hi - lo + 1))

let bit x i = extract x ~hi:i ~lo:i

let replicate x n =
  if n <= 0 then invalid_arg "Bitvec.replicate: non-positive count";
  let rec go acc k = if k = 1 then acc else go (concat acc x) (k - 1) in
  go x n

(* ---- Casts ---- *)

(* Resize/reinterpret to [t], truncating or sign-/zero-extending the bit
   pattern exactly like a C-style cast in CoreDSL. *)
let cast t x =
  if ty_equal t x.ty then x
  else if t.width >= x.ty.width then
    (* widening: value is preserved unless we drop the sign *)
    make t x.v
  else make t (pattern x)

let reinterpret_sign signed x = cast { x.ty with signed } x

let trunc w x = cast { x.ty with width = w } x

(* Widen to [t]; fails if [t] cannot represent every value of [x]'s type
   (this is the implicit-assignment legality rule of CoreDSL). *)
let implicit_conv_ok ~src ~dst =
  if src.signed = dst.signed then dst.width >= src.width
  else if src.signed && not dst.signed then false
  else dst.width >= src.width + 1

(* ---- Literals ---- *)

(* Plain C-style literal: unsigned with minimal width. *)
let of_literal s =
  let v = Bn.of_string s in
  if Bn.compare v Bn.zero < 0 then
    let t = signed_ty (Bn.num_bits (Bn.neg v) + 1) in
    make_exact t v
  else make_exact (fit_unsigned v) v

(* Verilog-style sized literal, e.g. 7'd13, 3'b101, 8'hff. *)
let of_verilog_literal ~width ~base ~digits =
  let v =
    match base with
    | 'd' | 'D' -> Bn.of_string digits
    | 'b' | 'B' -> Bn.of_string ("0b" ^ digits)
    | 'h' | 'H' | 'x' | 'X' -> Bn.of_string ("0x" ^ digits)
    | c -> invalid_arg (Printf.sprintf "Bitvec.of_verilog_literal: base '%c'" c)
  in
  make (unsigned_ty width) v

(* ---- Printing ---- *)

let to_string x = Bn.to_string x.v

let to_hex_string x =
  let p = pattern x in
  let digits = (x.ty.width + 3) / 4 in
  let buf = Buffer.create (digits + 2) in
  Buffer.add_string buf "0x";
  for i = digits - 1 downto 0 do
    let nib = Bn.to_int_exn (Bn.mod_pow2 (Bn.shift_right p (i * 4)) 4) in
    Buffer.add_char buf "0123456789abcdef".[nib]
  done;
  Buffer.contents buf

let to_bin_string x =
  let p = pattern x in
  let buf = Buffer.create (x.ty.width + 2) in
  Buffer.add_string buf "0b";
  for i = x.ty.width - 1 downto 0 do
    Buffer.add_char buf (if Bn.mag_testbit p i then '1' else '0')
  done;
  Buffer.contents buf

let pp fmt x = Format.fprintf fmt "%s:%a" (to_string x) pp_ty x.ty
