(* Arbitrary-precision signed integers in sign-magnitude representation.

   This is the numeric engine underneath {!Bitvec}. The magnitude is a
   little-endian array of base-2^30 limbs with no trailing zero limbs; the
   sign is -1, 0 or +1, and [sign = 0] iff the magnitude is empty. Keeping
   the invariant canonical makes structural equality coincide with numeric
   equality, which the rest of the library relies on. *)

let limb_bits = 30
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }
let is_zero x = x.sign = 0

(* Strip trailing zero limbs and fix the sign of a zero result. *)
let norm sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int i =
  if i = 0 then zero
  else if i = min_int then
    (* |min_int| = 2^62 on a 63-bit platform; abs would overflow. *)
    norm (-1) [| 0; 0; 1 lsl 2 |]
  else begin
    let sign = if i < 0 then -1 else 1 in
    let a = abs i in
    (* exactly as many limbs as the magnitude needs: canonical as built *)
    if a < limb_base then { sign; mag = [| a |] }
    else if a lsr (2 * limb_bits) = 0 then { sign; mag = [| a land limb_mask; a lsr limb_bits |] }
    else { sign; mag = [| a land limb_mask; (a lsr limb_bits) land limb_mask; a lsr (2 * limb_bits) |] }
  end

let one = of_int 1

(* Compare magnitudes only. *)
let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign = 0 then 0
  else x.sign * mag_compare x.mag y.mag

let equal x y = compare x y = 0

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb + 1 in
  let r = Array.make l 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r

(* Requires |a| >= |b|. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  r

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }

let rec add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then norm x.sign (mag_add x.mag y.mag)
  else begin
    match mag_compare x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> norm x.sign (mag_sub x.mag y.mag)
    | _ -> norm y.sign (mag_sub y.mag x.mag)
  end

and sub x y = add x (neg y)

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else begin
    let la = Array.length x.mag and lb = Array.length y.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = x.mag.(i) in
      for j = 0 to lb - 1 do
        let t = (ai * y.mag.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    norm (x.sign * y.sign) r
  end

(* Number of significant bits in |x| (0 for zero). *)
let num_bits x =
  if x.sign = 0 then 0
  else begin
    let l = Array.length x.mag in
    let top = x.mag.(l - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((l - 1) * limb_bits) + width top 0
  end

(* Bit [i] of |x| (magnitude, not two's complement). *)
let mag_testbit x i =
  let limb = i / limb_bits and off = i mod limb_bits in
  if limb >= Array.length x.mag then false else (x.mag.(limb) lsr off) land 1 = 1

let shift_left x k =
  if x.sign = 0 || k = 0 then x
  else begin
    let limbs = k / limb_bits and off = k mod limb_bits in
    let la = Array.length x.mag in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = x.mag.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    norm x.sign r
  end

(* Arithmetic right shift on the numeric value: floor(x / 2^k). *)
let shift_right x k =
  if x.sign = 0 || k = 0 then x
  else begin
    let limbs = k / limb_bits and off = k mod limb_bits in
    let la = Array.length x.mag in
    if limbs >= la then (if x.sign < 0 then of_int (-1) else zero)
    else begin
      let l = la - limbs in
      let r = Array.make l 0 in
      for i = 0 to l - 1 do
        let lo = x.mag.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < la then (x.mag.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
        r.(i) <- if off = 0 then x.mag.(i + limbs) else lo lor hi
      done;
      let q = norm x.sign r in
      if x.sign < 0 then begin
        (* floor semantics: if any bit was shifted out, round toward -inf *)
        let dropped =
          let rec go i = i < k && (mag_testbit x i || go (i + 1)) in
          go 0
        in
        if dropped then sub q one else q
      end
      else q
    end
  end

(* Truncating division (toward zero), binary long division on magnitudes. *)
let divmod x y =
  if y.sign = 0 then invalid_arg "Bn.divmod: division by zero";
  if x.sign = 0 then (zero, zero)
  else begin
    let n = num_bits x in
    let q = Array.make (Array.length x.mag) 0 in
    let r = ref zero in
    for i = n - 1 downto 0 do
      r := shift_left !r 1;
      if mag_testbit x i then r := add !r one;
      if mag_compare !r.mag y.mag >= 0 then begin
        r := norm 1 (mag_sub !r.mag y.mag);
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    let qv = norm (x.sign * y.sign) q in
    let rv = if is_zero !r then zero else { sign = x.sign; mag = !r.mag } in
    (qv, rv)
  end

let pow2 k = shift_left one k

(* Limb-wise bitwise operation on non-negative values. *)
let bitwise f a b =
  if a.sign < 0 || b.sign < 0 then invalid_arg "Bn.bitwise: negative operand";
  let la = Array.length a.mag and lb = Array.length b.mag in
  let l = max la lb in
  let r = Array.make (max l 1) 0 in
  for i = 0 to l - 1 do
    r.(i) <- f (if i < la then a.mag.(i) else 0) (if i < lb then b.mag.(i) else 0) land limb_mask
  done;
  norm 1 r

(* x mod 2^k, result in [0, 2^k). *)
let mod_pow2 x k =
  if k = 0 then zero
  else begin
    let limbs = (k + limb_bits - 1) / limb_bits in
    let la = Array.length x.mag in
    let r = Array.make limbs 0 in
    for i = 0 to limbs - 1 do
      r.(i) <- if i < la then x.mag.(i) else 0
    done;
    let top_bits = k - ((limbs - 1) * limb_bits) in
    if top_bits < limb_bits then r.(limbs - 1) <- r.(limbs - 1) land ((1 lsl top_bits) - 1);
    let m = norm 1 r in
    if x.sign >= 0 then m
    else if is_zero m then zero
    else sub (pow2 k) m
  end

let min_int_mag = [| 0; 0; 1 lsl 2 |]

let to_int_opt x =
  if x.sign = 0 then Some 0
  else if x.sign < 0 && mag_compare x.mag min_int_mag = 0 then Some min_int
  else if num_bits x > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length x.mag - 1 downto 0 do
      v := (!v lsl limb_bits) lor x.mag.(i)
    done;
    Some (x.sign * !v)
  end

let rec gcd a b =
  (* Euclid on magnitudes; gcd(0, x) = |x|. *)
  let a = { a with sign = abs a.sign } and b = { b with sign = abs b.sign } in
  if is_zero b then a else gcd b (snd (divmod a b))

let to_int_exn x =
  match to_int_opt x with Some v -> v | None -> failwith "Bn.to_int_exn: out of native int range"

let to_float x =
  let v = ref 0.0 in
  for i = Array.length x.mag - 1 downto 0 do
    v := (!v *. float_of_int limb_base) +. float_of_int x.mag.(i)
  done;
  !v *. float_of_int x.sign

let of_string_base base s =
  let b = of_int base in
  let v = ref zero in
  String.iter
    (fun c ->
      if c <> '_' then begin
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> invalid_arg "Bn.of_string: bad digit"
        in
        if d >= base then invalid_arg "Bn.of_string: digit out of range";
        v := add (mul !v b) (of_int d)
      end)
    s;
  !v

let of_string s =
  let neg_input = String.length s > 0 && s.[0] = '-' in
  let s = if neg_input then String.sub s 1 (String.length s - 1) else s in
  let v =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      of_string_base 16 (String.sub s 2 (String.length s - 2))
    else if String.length s > 2 && s.[0] = '0' && (s.[1] = 'b' || s.[1] = 'B') then
      of_string_base 2 (String.sub s 2 (String.length s - 2))
    else of_string_base 10 s
  in
  if neg_input then neg v else v

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let ten9 = of_int 1_000_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod v ten9 in
        go q (to_int_exn r :: acc)
      end
    in
    let chunks = go { x with sign = 1 } [] in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match chunks with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
