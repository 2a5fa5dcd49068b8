(* Tests for the arbitrary-precision bignum and bit-vector substrate. *)

module Bn = Bitvec.Bn

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Bn unit tests ---- *)

let test_bn_of_int_roundtrip () =
  List.iter
    (fun i -> check_int "roundtrip" i (Bn.to_int_exn (Bn.of_int i)))
    [ 0; 1; -1; 42; -42; 1 lsl 40; -(1 lsl 40); max_int; min_int + 1 ]

let test_bn_min_int () =
  let m = Bn.of_int min_int in
  check "min_int string" (string_of_int min_int) (Bn.to_string m);
  check_int "min_int back" min_int (Bn.to_int_exn m)

let test_bn_arith_small () =
  for _ = 1 to 500 do
    let a = Random.int 2_000_000 - 1_000_000 and b = Random.int 2_000_000 - 1_000_000 in
    let ba = Bn.of_int a and bb = Bn.of_int b in
    check_int "add" (a + b) (Bn.to_int_exn (Bn.add ba bb));
    check_int "sub" (a - b) (Bn.to_int_exn (Bn.sub ba bb));
    check_int "mul" (a * b) (Bn.to_int_exn (Bn.mul ba bb));
    if b <> 0 then begin
      let q, r = Bn.divmod ba bb in
      (* OCaml's / and mod truncate toward zero, matching Bn.divmod *)
      check_int "div" (a / b) (Bn.to_int_exn q);
      check_int "rem" (a mod b) (Bn.to_int_exn r)
    end
  done

let test_bn_big_mul () =
  (* (2^100 + 1) * (2^100 - 1) = 2^200 - 1 *)
  let p100 = Bn.pow2 100 in
  let a = Bn.add p100 Bn.one and b = Bn.sub p100 Bn.one in
  let expect = Bn.sub (Bn.pow2 200) Bn.one in
  check "big mul" (Bn.to_string expect) (Bn.to_string (Bn.mul a b))

let test_bn_string_roundtrip () =
  List.iter
    (fun s -> check "string roundtrip" s (Bn.to_string (Bn.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-987654321987654321987654321" ]

let test_bn_hex_bin () =
  check "hex" "51966" (Bn.to_string (Bn.of_string "0xcafe"));
  check "bin" "5" (Bn.to_string (Bn.of_string "0b101"));
  check "hex underscore" "255" (Bn.to_string (Bn.of_string "0xf_f"))

let test_bn_shifts () =
  let x = Bn.of_string "123456789123456789" in
  check "shl/shr" (Bn.to_string x) (Bn.to_string (Bn.shift_right (Bn.shift_left x 77) 77));
  check_int "floor shift neg" (-2) (Bn.to_int_exn (Bn.shift_right (Bn.of_int (-3)) 1));
  check_int "floor shift neg exact" (-2) (Bn.to_int_exn (Bn.shift_right (Bn.of_int (-4)) 1))

let test_bn_mod_pow2 () =
  check_int "pos" 5 (Bn.to_int_exn (Bn.mod_pow2 (Bn.of_int 21) 4));
  check_int "neg" 11 (Bn.to_int_exn (Bn.mod_pow2 (Bn.of_int (-21)) 4));
  check_int "zero" 0 (Bn.to_int_exn (Bn.mod_pow2 (Bn.of_int 16) 4));
  check_int "neg multiple" 0 (Bn.to_int_exn (Bn.mod_pow2 (Bn.of_int (-16)) 4))

let test_bn_num_bits () =
  check_int "0" 0 (Bn.num_bits Bn.zero);
  check_int "1" 1 (Bn.num_bits Bn.one);
  check_int "255" 8 (Bn.num_bits (Bn.of_int 255));
  check_int "256" 9 (Bn.num_bits (Bn.of_int 256));
  check_int "2^100" 101 (Bn.num_bits (Bn.pow2 100))

(* ---- Bitvec unit tests ---- *)

open Bitvec

let u w = unsigned_ty w
let s w = signed_ty w

let test_ty_algebra_paper () =
  (* the paper's example: unsigned<5> + signed<4> : signed<7> *)
  Alcotest.(check string) "u5+s4" "signed<7>" (ty_to_string (add_result_ty (u 5) (s 4)));
  Alcotest.(check string) "u4*u4" "unsigned<8>" (ty_to_string (mul_result_ty (u 4) (u 4)));
  Alcotest.(check string) "u8-u8" "signed<9>" (ty_to_string (sub_result_ty (u 8) (u 8)));
  Alcotest.(check string) "s16*s16" "signed<32>" (ty_to_string (mul_result_ty (s 16) (s 16)))

let test_implicit_conv () =
  (* u4 = u5 and u4 = s4 forbidden; u5 = u4 ok; s5 = u4 ok; s4 = u4 not ok *)
  check_bool "u5->u4" false (implicit_conv_ok ~src:(u 5) ~dst:(u 4));
  check_bool "s4->u4" false (implicit_conv_ok ~src:(s 4) ~dst:(u 4));
  check_bool "u4->u5" true (implicit_conv_ok ~src:(u 4) ~dst:(u 5));
  check_bool "u4->s5" true (implicit_conv_ok ~src:(u 4) ~dst:(s 5));
  check_bool "u4->s4" false (implicit_conv_ok ~src:(u 4) ~dst:(s 4));
  check_bool "s4->s4" true (implicit_conv_ok ~src:(s 4) ~dst:(s 4))

let test_arith_never_overflows () =
  let a = of_int (u 4) 15 and b = of_int (s 4) (-8) in
  let r = add a b in
  check_int "15 + -8" 7 (to_int r);
  Alcotest.(check string) "ty" "signed<6>" (ty_to_string (typ r));
  let m = mul a b in
  check_int "15 * -8" (-120) (to_int m);
  Alcotest.(check string) "mul ty" "signed<8>" (ty_to_string (typ m))

let test_wrap_trunc () =
  let x = of_int (u 8) 0xAB in
  check_int "trunc 4" 0xB (to_int (trunc 4 x));
  let y = of_int (s 8) (-1) in
  check_int "reinterpret unsigned" 255 (to_int (reinterpret_sign false y));
  let z = cast (s 4) (of_int (u 8) 0xF) in
  check_int "cast to s4 wraps" (-1) (to_int z)

let test_concat_extract () =
  let hi = of_int (u 4) 0xA and lo = of_int (u 4) 0x5 in
  let c = concat hi lo in
  check_int "concat" 0xA5 (to_int c);
  check_int "extract hi" 0xA (to_int (extract c ~hi:7 ~lo:4));
  check_int "extract lo" 0x5 (to_int (extract c ~hi:3 ~lo:0));
  check_int "bit 7" 1 (to_int (bit c 7));
  check_int "bit 6" 0 (to_int (bit c 6))

let test_concat_negative_pattern () =
  (* concat uses the bit pattern, not the numeric value *)
  let neg1 = of_int (s 4) (-1) in
  let c = concat neg1 (of_int (u 4) 0) in
  check_int "s4(-1) :: u4(0)" 0xF0 (to_int c)

let test_replicate () =
  let x = of_int (u 2) 0b10 in
  check_int "replicate 3" 0b101010 (to_int (replicate x 3));
  check_int "replicate width" 6 (width (replicate x 3))

let test_literals () =
  let l = of_literal "42" in
  check_int "42" 42 (to_int l);
  check_int "42 width" 6 (width l);
  let v = of_verilog_literal ~width:7 ~base:'d' ~digits:"13" in
  check_int "7'd13" 13 (to_int v);
  check_int "7'd13 width" 7 (width v);
  let b = of_verilog_literal ~width:3 ~base:'b' ~digits:"111" in
  check_int "3'b111" 7 (to_int b);
  let h = of_verilog_literal ~width:16 ~base:'h' ~digits:"cafe" in
  check_int "16'hcafe" 0xcafe (to_int h)

let test_printing () =
  check "hex" "0xa5" (to_hex_string (of_int (u 8) 0xA5));
  check "bin" "0b10100101" (to_bin_string (of_int (u 8) 0xA5));
  check "hex neg" "0xff" (to_hex_string (of_int (s 8) (-1)))

let test_division () =
  let a = of_int (s 8) (-7) and b = of_int (s 8) 2 in
  check_int "-7 / 2" (-3) (to_int (div a b));
  check_int "-7 mod 2" (-1) (to_int (rem a b));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (div a (of_int (s 8) 0)))

let test_exact_errors () =
  Alcotest.check_raises "of_int_exact range"
    (Width_error "value 16 does not fit in unsigned<4>") (fun () ->
      ignore (of_int_exact (u 4) 16))

(* widths straddling the native-int word: 62 bits is the last width whose
   unsigned values all fit in an OCaml int; 63/64/65 need the bignum path.
   The compiled RTL engine keys its unboxed fast path on exactly this
   boundary, so wrap/cast/to_int must be exact here. *)
let test_word_boundary_widths () =
  List.iter
    (fun w ->
      let ones = Bn.sub (Bn.pow2 w) Bn.one in
      check (Printf.sprintf "wrap 2^%d" w) "0"
        (Bn.to_string (to_bn (make (u w) (Bn.pow2 w))));
      check "all-ones preserved" (Bn.to_string ones) (Bn.to_string (to_bn (make (u w) ones)));
      (* ones + 2 wraps to 1 *)
      check "add wraps" "1" (Bn.to_string (wrap (u w) (Bn.add ones (Bn.of_int 2))));
      (* 2^(w-1) * 2 wraps to 0 *)
      check "mul wraps" "0" (Bn.to_string (wrap (u w) (Bn.mul (Bn.pow2 (w - 1)) (Bn.of_int 2))));
      (* reinterpreting the all-ones pattern signed gives -1 at every width *)
      check "signed -1" "-1" (Bn.to_string (to_bn (cast (s w) (make (u w) ones))));
      (* the sign bit: signed reinterpretation of 2^(w-1) is -2^(w-1) *)
      check "sign bit"
        (Bn.to_string (Bn.sub Bn.zero (Bn.pow2 (w - 1))))
        (Bn.to_string (to_bn (cast (s w) (make (u w) (Bn.pow2 (w - 1))))));
      (* the native escape hatch: all-ones fits in an int only through 62 *)
      check_bool "to_int_opt at boundary" (w <= 62) (to_int_opt (make (u w) ones) <> None))
    [ 62; 63; 64; 65 ]

(* ---- qcheck properties ---- *)


(* A left shift by the width or more is the zero of the value's type,
   without building the shifted bignum (2^40 bits would take 128 GiB). *)
let test_shift_left_past_width () =
  List.iter
    (fun ty ->
      let x = of_bn ty (Bn.of_string "0x1234567890abcdef1234567890abcdef") in
      List.iter
        (fun k ->
          let r = shift_left x k in
          check_bool (Printf.sprintf "<< %d is zero at %d bits" k ty.width) true (is_zero r);
          check_bool "keeps the type" true (typ r = ty))
        [ ty.width; ty.width + 1; 1 lsl 40 ];
      check_bool "one bit short keeps the low bit" false
        (is_zero (shift_left (of_int ty 1) (ty.width - 1))))
    [ u 64; s 64; u 130; s 130 ]
let arb_small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

let prop_bn_add_commutes =
  QCheck.Test.make ~name:"bn add commutes" ~count:300 (QCheck.pair arb_small_int arb_small_int)
    (fun (a, b) -> Bn.equal (Bn.add (Bn.of_int a) (Bn.of_int b)) (Bn.add (Bn.of_int b) (Bn.of_int a)))

let prop_bn_mul_distributes =
  QCheck.Test.make ~name:"bn mul distributes over add" ~count:300
    (QCheck.triple arb_small_int arb_small_int arb_small_int) (fun (a, b, c) ->
      let ba = Bn.of_int a and bb = Bn.of_int b and bc = Bn.of_int c in
      Bn.equal (Bn.mul ba (Bn.add bb bc)) (Bn.add (Bn.mul ba bb) (Bn.mul ba bc)))

let prop_bn_divmod_identity =
  QCheck.Test.make ~name:"bn a = b*q + r, |r| < |b|" ~count:300
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let ba = Bn.of_int a and bb = Bn.of_int b in
      let q, r = Bn.divmod ba bb in
      Bn.equal ba (Bn.add (Bn.mul bb q) r)
      && Bn.compare (Bn.mul r r) (Bn.mul bb bb) < 0)

let prop_bn_shift_roundtrip =
  QCheck.Test.make ~name:"bn shl then shr is identity" ~count:200
    (QCheck.pair arb_small_int (QCheck.int_range 0 80)) (fun (a, k) ->
      let ba = Bn.of_int a in
      Bn.equal ba (Bn.shift_right (Bn.shift_left ba k) k))

let prop_bn_string_roundtrip =
  QCheck.Test.make ~name:"bn decimal string roundtrip" ~count:200 QCheck.int (fun a ->
      Bn.equal (Bn.of_int a) (Bn.of_string (Bn.to_string (Bn.of_int a))))

let arb_ty =
  QCheck.map
    (fun (w, sgn) -> if sgn then signed_ty w else unsigned_ty w)
    (QCheck.pair (QCheck.int_range 1 80) QCheck.bool)

let arb_bv =
  QCheck.map
    (fun (ty, seed) -> of_int ty seed)
    (QCheck.pair arb_ty QCheck.int)

let prop_bv_in_range =
  QCheck.Test.make ~name:"bv values stay in type range" ~count:500 arb_bv (fun x ->
      in_range (typ x) (to_bn x))

let prop_bv_add_matches_int =
  QCheck.Test.make ~name:"bv add matches int semantics" ~count:500 (QCheck.pair arb_bv arb_bv)
    (fun (a, b) ->
      match (to_int_opt a, to_int_opt b) with
      | Some ia, Some ib when abs ia < 1 lsl 30 && abs ib < 1 lsl 30 ->
          to_int (add a b) = ia + ib
      | _ -> QCheck.assume_fail ())

let prop_bv_concat_extract_roundtrip =
  QCheck.Test.make ~name:"bv concat/extract roundtrip" ~count:500 (QCheck.pair arb_bv arb_bv)
    (fun (a, b) ->
      let c = concat a b in
      let a' = extract c ~hi:(width a + width b - 1) ~lo:(width b) in
      let b' = extract c ~hi:(width b - 1) ~lo:0 in
      equal_value a' (reinterpret_sign false (of_bn (unsigned_ty (width a)) (pattern a)))
      && equal_value b' (of_bn (unsigned_ty (width b)) (pattern b)))

let prop_bv_lognot_involution =
  QCheck.Test.make ~name:"bv lognot involution" ~count:500 arb_bv (fun x ->
      equal (lognot (lognot x)) x)

let prop_bv_cast_widen_preserves =
  QCheck.Test.make ~name:"bv widening cast preserves value" ~count:500
    (QCheck.pair arb_bv (QCheck.int_range 1 40)) (fun (x, extra) ->
      let t = { (typ x) with width = width x + extra } in
      equal_value (cast t x) x)

let prop_bv_demorgan =
  QCheck.Test.make ~name:"bv De Morgan" ~count:300 (QCheck.pair arb_bv arb_bv) (fun (a, b) ->
      (* restrict to equal types so widths line up *)
      let b = cast (typ a) b in
      equal (lognot (logand a b)) (logor (lognot a) (lognot b)))

let prop_bv_hex_width =
  QCheck.Test.make ~name:"bv hex string length matches width" ~count:300 arb_bv (fun x ->
      String.length (to_hex_string x) = 2 + ((width x + 3) / 4))

(* The Bn reference for a two's-complement wrap, which types of at most
   62 bits now take on native ints. *)
let bn_wrap (t : ty) v =
  let m = Bn.mod_pow2 v t.width in
  if t.signed && Bn.compare m (Bn.pow2 (t.width - 1)) >= 0 then Bn.sub m (Bn.pow2 t.width) else m

let prop_native_wrap =
  QCheck.Test.make ~name:"of_int and wrap on native ints == the Bn wrap" ~count:300
    (QCheck.triple (QCheck.int_range 1 62) QCheck.bool QCheck.int)
    (fun (w, signed, x) ->
      let t = ty ~width:w ~signed and p = Bn.pow2 w in
      let ints = [ x; min_int; max_int; 0; -1; min_int + 1; 1 lsl (w - 1); -(1 lsl (w - 1)) ] in
      let ints = if w <= 61 then (1 lsl w) :: -(1 lsl w) :: ints else ints in
      let bns =
        List.map Bn.of_int ints
        @ [ p; Bn.neg p; Bn.add p Bn.one; Bn.sub p Bn.one; Bn.neg (Bn.add p Bn.one) ]
        @ [ Bn.add (Bn.pow2 100) (Bn.of_int x); Bn.neg (Bn.add (Bn.pow2 100) (Bn.of_int x)) ]
      in
      List.for_all
        (fun i ->
          let v = of_int t i in
          ty_equal (typ v) t && Bn.equal (to_bn v) (bn_wrap t (Bn.of_int i)))
        ints
      && List.for_all (fun v -> Bn.equal (wrap t v) (bn_wrap t v)) bns)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_native_wrap;
      prop_bn_add_commutes;
      prop_bn_mul_distributes;
      prop_bn_divmod_identity;
      prop_bn_shift_roundtrip;
      prop_bn_string_roundtrip;
      prop_bv_in_range;
      prop_bv_add_matches_int;
      prop_bv_concat_extract_roundtrip;
      prop_bv_lognot_involution;
      prop_bv_cast_widen_preserves;
      prop_bv_demorgan;
      prop_bv_hex_width;
    ]

let () =
  Alcotest.run "bitvec"
    [
      ( "bn",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_bn_of_int_roundtrip;
          Alcotest.test_case "min_int" `Quick test_bn_min_int;
          Alcotest.test_case "arith vs native" `Quick test_bn_arith_small;
          Alcotest.test_case "big multiplication" `Quick test_bn_big_mul;
          Alcotest.test_case "string roundtrip" `Quick test_bn_string_roundtrip;
          Alcotest.test_case "hex/bin parsing" `Quick test_bn_hex_bin;
          Alcotest.test_case "shifts" `Quick test_bn_shifts;
          Alcotest.test_case "mod_pow2" `Quick test_bn_mod_pow2;
          Alcotest.test_case "num_bits" `Quick test_bn_num_bits;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "paper type algebra" `Quick test_ty_algebra_paper;
          Alcotest.test_case "implicit conversion rules" `Quick test_implicit_conv;
          Alcotest.test_case "arith never overflows" `Quick test_arith_never_overflows;
          Alcotest.test_case "wrap/trunc" `Quick test_wrap_trunc;
          Alcotest.test_case "concat/extract" `Quick test_concat_extract;
          Alcotest.test_case "concat uses bit pattern" `Quick test_concat_negative_pattern;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "printing" `Quick test_printing;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "exact errors" `Quick test_exact_errors;
          Alcotest.test_case "62/63/64/65-bit boundaries" `Quick test_word_boundary_widths;
          Alcotest.test_case "shift left past the width" `Quick test_shift_left_past_width;
        ] );
      ("properties", qcheck_cases);
    ]
