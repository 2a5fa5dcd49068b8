(* Bit-level abstract interpretation over MIR (see the .mli).

   The domain is a reduced product of two halves kept per SSA value:

   - known bits: the unsigned bit pattern of the value at its own width,
     abstracted bit-by-bit as 0 / 1 / unknown. Encoded as a pair of
     non-negative big integers [bk] (the known mask) and [bv] (the values
     of the known bits, [bv] a submask of [bk]).
   - the numeric interval of {!Dataflow.ranges}, reused verbatim as the
     product's interval half.

   Soundness rests on one fact shared by both algebras: every MIR value,
   [hwarith] or [comb], is encoded as its two's-complement pattern at its
   type's width, and every modeled operation commutes with [mod 2^t] on
   those patterns. The [hwarith] algebra never wraps only because its
   result types are wide enough — so the result pattern is still the
   plain mod-2^w sum/product of the sign-/zero-extended operand patterns,
   and the same trailing-bits transfer serves both dialects. Operations
   with no precise bit transfer fall back to "all bits unknown"; a fully
   known [comb] op is folded exactly through {!Ir.Comb_eval}, which makes
   agreement with the concrete semantics true by construction. *)

open Ir.Mir
module Bn = Bitvec.Bn
module D = Dataflow

type bits = { bk : Bn.t; bv : Bn.t }
type fact = { f_bits : bits; f_range : D.range }

(* ---- bit-twiddling on non-negative big integers ---- *)

let mask w = Bn.sub (Bn.pow2 w) Bn.one
let band = Bn.bitwise ( land )
let bor = Bn.bitwise ( lor )
let bxor = Bn.bitwise ( lxor )

(* a & ~b without a width: valid because [x & b] is a submask of [x],
   so the subtraction borrows nothing *)
let andnot a b = Bn.sub a (band a b)

let testbit = Bn.mag_testbit
let bn_min a b = if Bn.compare a b <= 0 then a else b
let bn_max a b = if Bn.compare a b >= 0 then a else b

let top_bits = { bk = Bn.zero; bv = Bn.zero }

let fully_known w b = Bn.equal b.bk (mask w)
let known_const w p = { bk = mask w; bv = Bn.mod_pow2 p w }

let bits_equal a b = Bn.equal a.bk b.bk && Bn.equal a.bv b.bv

let bits_join a b =
  let bk = andnot (band a.bk b.bk) (bxor a.bv b.bv) in
  { bk; bv = band a.bv bk }

let popcount w m =
  let c = ref 0 in
  for i = 0 to w - 1 do
    if testbit m i then incr c
  done;
  !c

let known_count ~width b = popcount width b.bk

let leading_known ~width b =
  let k = ref 0 in
  (try
     for i = width - 1 downto 0 do
       if testbit b.bk i then incr k else raise Exit
     done
   with Exit -> ());
  !k

(* numeric value of a fully known pattern under the type's signedness *)
let bits_value (ty : Bitvec.ty) b =
  let w = ty.Bitvec.width in
  if fully_known w b then
    Some
      (if ty.Bitvec.signed && testbit b.bv (w - 1) then Bn.sub b.bv (Bn.pow2 w)
       else b.bv)
  else None

(* ---- interval -> known bits ----

   Any contiguous value interval whose endpoints' patterns share a common
   high-bit prefix pins that prefix for every value in between — valid
   whenever the patterns are monotone over the interval, i.e. when the
   interval does not cross the sign-pattern discontinuity at 0. *)
let bits_from_range (ty : Bitvec.ty) (r : D.range) =
  let w = ty.Bitvec.width in
  if Bn.compare r.D.lo Bn.zero >= 0 || Bn.compare r.D.hi Bn.zero < 0 then begin
    let pa = Bn.mod_pow2 r.D.lo w and pb = Bn.mod_pow2 r.D.hi w in
    let diff = Bn.num_bits (bxor pa pb) in
    let bk = andnot (mask w) (mask diff) in
    { bk; bv = band pa bk }
  end
  else top_bits

(* ---- the reduction ----

   Exchange information between the two halves once per transfer. A
   conflict between the halves can only arise on unreachable facts; we
   keep the original half rather than manufacture bottom. *)
let reduce (ty : Bitvec.ty) b (rng : D.range) =
  let w = ty.Bitvec.width in
  (* interval -> bits *)
  let rb = bits_from_range ty rng in
  let conflict = not (Bn.is_zero (band (band b.bk rb.bk) (bxor b.bv rb.bv))) in
  let b = if conflict then b else { bk = bor b.bk rb.bk; bv = bor b.bv rb.bv } in
  (* bits -> interval *)
  let rng =
    match bits_value ty b with
    | Some v -> { D.lo = v; hi = v }
    | None ->
        (* pattern bounds translate to value bounds only when the whole
           concretization sits on one side of the sign discontinuity *)
        let sign_det = (not ty.Bitvec.signed) || testbit b.bk (w - 1) in
        if sign_det then begin
          let pmin = b.bv and pmax = bor b.bv (andnot (mask w) b.bk) in
          let dec p =
            if ty.Bitvec.signed && testbit b.bv (w - 1) then Bn.sub p (Bn.pow2 w) else p
          in
          let lo = bn_max rng.D.lo (dec pmin) and hi = bn_min rng.D.hi (dec pmax) in
          if Bn.compare lo hi > 0 then rng else { D.lo; hi }
        end
        else rng
  in
  { f_bits = b; f_range = rng }

(* ---- bit-level transfer ---- *)

(* encode a value's known bits at width [w]: truncate, or extend per the
   value's own signedness (a signed extension is known only when the
   source sign bit is) *)
let ext_to w (vty : Bitvec.ty) b =
  let wa = vty.Bitvec.width in
  if wa >= w then { bk = Bn.mod_pow2 b.bk w; bv = Bn.mod_pow2 b.bv w }
  else
    let high = andnot (mask w) (mask wa) in
    if not vty.Bitvec.signed then { bk = bor b.bk high; bv = b.bv }
    else if testbit b.bk (wa - 1) then
      if testbit b.bv (wa - 1) then { bk = bor b.bk high; bv = bor b.bv high }
      else { bk = bor b.bk high; bv = b.bv }
    else b

let shl_w w x k = Bn.mod_pow2 (Bn.shift_left x k) w

(* trailing positions known in both operands *)
let trailing_common w a b =
  let t = ref 0 in
  (try
     for i = 0 to w - 1 do
       if testbit a.bk i && testbit b.bk i then incr t else raise Exit
     done
   with Exit -> ());
  !t

(* the low t bits of a+b / a-b / a*b (mod 2^w) depend only on the low t
   bits of the operand patterns — two's complement arithmetic is a ring
   mod 2^t for every t *)
let trailing_arith w kind a b =
  let t = trailing_common w a b in
  if t = 0 then top_bits
  else begin
    let la = Bn.mod_pow2 a.bv t and lb = Bn.mod_pow2 b.bv t in
    let low =
      match kind with
      | `Add -> Bn.mod_pow2 (Bn.add la lb) t
      | `Sub -> Bn.mod_pow2 (Bn.sub la lb) t
      | `Mul -> Bn.mod_pow2 (Bn.mul la lb) t
    in
    { bk = mask t; bv = low }
  end

let bitwise_bits kind a b =
  match kind with
  | `And ->
      let known1 = band (band a.bk a.bv) (band b.bk b.bv) in
      let known0 = bor (andnot a.bk a.bv) (andnot b.bk b.bv) in
      { bk = bor known0 known1; bv = known1 }
  | `Or ->
      let known1 = bor (band a.bk a.bv) (band b.bk b.bv) in
      let known0 = band (andnot a.bk a.bv) (andnot b.bk b.bv) in
      { bk = bor known0 known1; bv = known1 }
  | `Xor ->
      let bk = band a.bk b.bk in
      { bk; bv = band (bxor a.bv b.bv) bk }

let bits_shl w b k =
  if k >= w then known_const w Bn.zero
  else { bk = bor (shl_w w b.bk k) (mask k); bv = shl_w w b.bv k }

let bits_lshr w b k =
  if k >= w then known_const w Bn.zero
  else
    let high = andnot (mask w) (mask (w - k)) in
    { bk = bor (Bn.shift_right b.bk k) high; bv = Bn.shift_right b.bv k }

let bits_ashr w b k =
  let k = min k (w - 1) in
  let high = andnot (mask w) (mask (w - k)) in
  let sign_known = testbit b.bk (w - 1) in
  let fill = sign_known && testbit b.bv (w - 1) in
  {
    bk = bor (Bn.shift_right b.bk k) (if sign_known then high else Bn.zero);
    bv = bor (Bn.shift_right b.bv k) (if fill then high else Bn.zero);
  }

let bool_bits = function
  | Some true -> known_const 1 Bn.one
  | Some false -> known_const 1 Bn.zero
  | None -> top_bits

(* [Some k]: a shift/mux selector whose numeric value is pinned *)
let known_nonneg_int (v : value) b =
  match bits_value v.vty b with
  | Some n when Bn.compare n Bn.zero >= 0 -> Bn.to_int_opt n
  | _ -> None

let bits_compute (op : op) ~(factb : value -> bits option) (r : value) : bits option =
  let w = r.vty.Bitvec.width in
  let operand i = List.nth op.operands i in
  let fb_of (v : value) = Option.value ~default:top_bits (factb v) in
  let fb i = fb_of (operand i) in
  let any_bottom = List.exists (fun v -> factb v = None) op.operands in
  if any_bottom then None
  else if
    Ir.Comb_eval.is_comb op.opname
    && List.for_all (fun (v : value) -> fully_known v.vty.Bitvec.width (fb_of v)) op.operands
  then
    (* every operand pinned: fold the op through the concrete semantics *)
    try
      let ops =
        List.map
          (fun (v : value) ->
            Bitvec.of_bn (Bitvec.unsigned_ty v.vty.Bitvec.width) (fb_of v).bv)
          op.operands
      in
      let res = Ir.Comb_eval.eval ~name:op.opname ~attrs:op.attrs ~ops ~result_width:w in
      Some (known_const w (Bitvec.pattern res))
    with _ -> Some top_bits
  else
    let ext2 () = (ext_to w (operand 0).vty (fb 0), ext_to w (operand 1).vty (fb 1)) in
    match op.opname with
    | "hw.constant" -> (
        match attr_bv op "value" with
        | Some c -> Some (known_const w (Bitvec.pattern c))
        | None -> Some top_bits)
    | "comb.add" | "hwarith.add" ->
        let a, b = ext2 () in
        Some (trailing_arith w `Add a b)
    | "comb.sub" | "hwarith.sub" ->
        let a, b = ext2 () in
        Some (trailing_arith w `Sub a b)
    | "comb.mul" | "hwarith.mul" ->
        let a, b = ext2 () in
        Some (trailing_arith w `Mul a b)
    | "comb.and" | "hwarith.band" ->
        let a, b = ext2 () in
        Some (bitwise_bits `And a b)
    | "comb.or" | "hwarith.bor" ->
        let a, b = ext2 () in
        Some (bitwise_bits `Or a b)
    | "comb.xor" | "hwarith.bxor" ->
        let a, b = ext2 () in
        Some (bitwise_bits `Xor a b)
    | "hwarith.not" ->
        let a = ext_to w (operand 0).vty (fb 0) in
        Some { bk = a.bk; bv = band (andnot (mask w) a.bv) a.bk }
    | "comb.mux" | "hwarith.mux" ->
        let c = fb 0 and t = ext_to w (operand 1).vty (fb 1) in
        let f = ext_to w (operand 2).vty (fb 2) in
        Some
          (if fully_known 1 c then if Bn.is_zero c.bv then f else t
           else bits_join t f)
    | "comb.extract" -> (
        match attr_int op "lowBit" with
        | Some lb ->
            let a = fb 0 in
            Some
              {
                bk = Bn.mod_pow2 (Bn.shift_right a.bk lb) w;
                bv = Bn.mod_pow2 (Bn.shift_right a.bv lb) w;
              }
        | None -> Some top_bits)
    | "comb.concat" ->
        (* first operand is the most significant *)
        Some
          (List.fold_left
             (fun acc (v : value) ->
               let b = Option.value ~default:top_bits (factb v) in
               let wv = v.vty.Bitvec.width in
               { bk = bor (Bn.shift_left acc.bk wv) b.bk; bv = bor (Bn.shift_left acc.bv wv) b.bv })
             top_bits op.operands)
    | "comb.replicate" ->
        let a = fb 0 in
        let wo = (operand 0).vty.Bitvec.width in
        let n = if wo > 0 then w / wo else 0 in
        let acc = ref top_bits in
        for _ = 1 to n do
          acc := { bk = bor (Bn.shift_left !acc.bk wo) a.bk; bv = bor (Bn.shift_left !acc.bv wo) a.bv }
        done;
        Some !acc
    | "comb.shl" | "hwarith.shl" -> (
        match known_nonneg_int (operand 1) (fb 1) with
        | Some k -> Some (bits_shl w (ext_to w (operand 0).vty (fb 0)) k)
        | None -> Some top_bits)
    | "comb.shru" -> (
        match known_nonneg_int (operand 1) (fb 1) with
        | Some k -> Some (bits_lshr w (fb 0) k)
        | None -> Some top_bits)
    | "comb.shrs" -> (
        match known_nonneg_int (operand 1) (fb 1) with
        | Some k -> Some (bits_ashr w (fb 0) k)
        | None -> Some top_bits)
    | "hwarith.shr" -> (
        (* floor division by 2^k = arithmetic shift of the sign-extended
           pattern (Bn.shift_right is floor for negatives) *)
        match known_nonneg_int (operand 1) (fb 1) with
        | Some k -> Some (bits_ashr w (ext_to w (operand 0).vty (fb 0)) k)
        | None -> Some top_bits)
    | "hwarith.cast" ->
        Some (ext_to w (operand 0).vty (fb 0))
    | "hwarith.and" | "hwarith.or" ->
        let a = fb 0 and b = fb 1 in
        let ka = if fully_known 1 a then Some (Bn.equal a.bv Bn.one) else None in
        let kb = if fully_known 1 b then Some (Bn.equal b.bv Bn.one) else None in
        let decided =
          match (op.opname, ka, kb) with
          | "hwarith.and", Some false, _ | "hwarith.and", _, Some false -> Some false
          | "hwarith.and", Some true, Some true -> Some true
          | "hwarith.or", Some true, _ | "hwarith.or", _, Some true -> Some true
          | "hwarith.or", Some false, Some false -> Some false
          | _ -> None
        in
        Some (bool_bits decided)
    | "hwarith.icmp" -> (
        (* eq/ne decidable from a single conflicting known bit; every
           predicate decidable when both sides are fully pinned *)
        let wa = (operand 0).vty.Bitvec.width and wb = (operand 1).vty.Bitvec.width in
        let wc = max wa wb + 1 in
        let a = ext_to wc (operand 0).vty (fb 0) and b = ext_to wc (operand 1).vty (fb 1) in
        let conflict = not (Bn.is_zero (band (band a.bk b.bk) (bxor a.bv b.bv))) in
        match (attr_str op "predicate", bits_value (operand 0).vty (fb 0), bits_value (operand 1).vty (fb 1)) with
        | Some p, Some va, Some vb -> (
            let c = Bn.compare va vb in
            match D.icmp_pred p with
            | Some `Eq -> Some (bool_bits (Some (c = 0)))
            | Some `Ne -> Some (bool_bits (Some (c <> 0)))
            | Some `Lt -> Some (bool_bits (Some (c < 0)))
            | Some `Le -> Some (bool_bits (Some (c <= 0)))
            | Some `Gt -> Some (bool_bits (Some (c > 0)))
            | Some `Ge -> Some (bool_bits (Some (c >= 0)))
            | None -> Some top_bits)
        | Some p, _, _ when conflict -> (
            match D.icmp_pred p with
            | Some `Eq -> Some (bool_bits (Some false))
            | Some `Ne -> Some (bool_bits (Some true))
            | _ -> Some top_bits)
        | _ -> Some top_bits)
    | name
      when String.length name > 10 && String.sub name 0 10 = "comb.icmp_" -> (
        (* partial knowledge: eq/ne from one conflicting known bit *)
        let a = fb 0 and b = fb 1 in
        let conflict = not (Bn.is_zero (band (band a.bk b.bk) (bxor a.bv b.bv))) in
        if conflict then
          match name with
          | "comb.icmp_eq" -> Some (bool_bits (Some false))
          | "comb.icmp_ne" -> Some (bool_bits (Some true))
          | _ -> Some top_bits
        else Some top_bits)
    | _ -> Some top_bits

(* ---- the product analysis, on the Dataflow engine ---- *)

type t = fact option

let fact_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      bits_equal a.f_bits b.f_bits
      && Bn.equal a.f_range.D.lo b.f_range.D.lo
      && Bn.equal a.f_range.D.hi b.f_range.D.hi
  | _ -> false

let fact_join a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b ->
      Some
        {
          f_bits = bits_join a.f_bits b.f_bits;
          f_range =
            {
              D.lo = bn_min a.f_range.D.lo b.f_range.D.lo;
              hi = bn_max a.f_range.D.hi b.f_range.D.hi;
            };
        }

let fact_widen (v : value) old joined =
  match (old, joined) with
  | Some o, Some j ->
      let wr =
        D.widen_range v (Some o.f_range) (Some j.f_range)
        |> Option.value ~default:(D.range_of_ty v.vty)
      in
      (* the bits half has height <= width per value: no widening needed *)
      Some { j with f_range = wr }
  | _ -> joined

let spec : t D.spec =
  {
    D.df_name = "absint";
    df_direction = D.Forward;
    df_init = (fun _ -> None);
    df_transfer =
      (fun op ~fact ->
        let franges (v : value) = Option.map (fun f -> f.f_range) (fact v) in
        let fbits (v : value) = Option.map (fun f -> f.f_bits) (fact v) in
        List.map
          (fun (r : value) ->
            let rng = D.ranges_compute op ~fact:franges r in
            let bts = bits_compute op ~factb:fbits r in
            match (rng, bts) with
            | None, None -> (r, None)
            | _ ->
                let rng = Option.value rng ~default:(D.range_of_ty r.vty) in
                let bts = Option.value bts ~default:top_bits in
                (r, Some (reduce r.vty bts rng)))
          op.results);
    df_join = fact_join;
    df_equal = fact_equal;
    df_widen = Some fact_widen;
  }

type result = { res : t D.result }

let analyze (g : graph) : result = { res = D.run spec g }
let fact_of r (v : value) = r.res.D.fact_of v
let iterations r = r.res.D.iterations

(* ---- convenience queries ---- *)

let decide_bool (f : fact) =
  if fully_known 1 f.f_bits then Some (Bn.equal f.f_bits.bv Bn.one)
  else D.range_exact f.f_range |> Option.map (fun x -> Bn.equal x Bn.one)
