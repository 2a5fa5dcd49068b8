(* Tests for lib/analysis: the dialect-aware IR verifier, the dataflow
   framework, the CoreDSL linter and the netlist structural checks, plus
   the --verify-each sanitizer's no-observable-effect contract. *)

module M = Ir.Mir
module V = Analysis.Verifier
module D = Analysis.Dataflow
module L = Analysis.Lint
module N = Analysis.Netcheck
module A = Analysis.Absint
module Tv = Analysis.Tv
module Nw = Analysis.Narrow
module Bn = Bitvec.Bn

let u = Bitvec.unsigned_ty

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let has_code c ds = List.mem c (codes ds)

(* ---- helpers: hand-built graphs ---- *)

(* a well-formed straight-line HLIR graph: r = (a + b), set into X *)
let good_hlir () =
  let b = M.builder () in
  let a = M.add_op1 b "coredsl.get" [] (u 32) ~attrs:[ ("state", M.A_str "X") ] in
  let c = M.add_op1 b "hw.constant" [] (u 32) ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 32) 7)) ] in
  let s = M.add_op1 b "hwarith.add" [ a; c ] (u 33) in
  ignore (M.add_op b "coredsl.set" [ s ] [] ~attrs:[ ("state", M.A_str "ACC") ]);
  M.finish b ~name:"good" ~kind:`Instruction ()

let mk_graph body = { M.gname = "hand"; gkind = `Instruction; gattrs = []; body }

let mk_val vid ty = { M.vid; vty = ty; vhint = "" }

let mk_op ?(oid = 0) ?(attrs = []) ?(regions = []) opname operands results =
  { M.oid; opname; operands; results; attrs; regions; oloc = None }

(* ---- verifier: accepts every bundled graph at both levels ---- *)

let test_verifier_accepts_bundled () =
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      List.iter
        (fun ti ->
          if Longnail.Flow.is_isax_instruction ti then begin
            let hlir = Ir.Hlir.lower_instruction tu ti in
            Alcotest.(check (list string))
              (Printf.sprintf "%s/%s hlir clean" e.name ti.Coredsl.Tast.ti_name)
              [] (codes (V.check ~level:`Hlir hlir))
          end)
        tu.Coredsl.Tast.tinstrs;
      let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
      List.iter
        (fun (f : Longnail.Flow.compiled_functionality) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s lil clean" e.name f.cf_name)
            [] (codes (V.check ~level:`Lil f.cf_lil));
          (* `Any infers the right level for both forms *)
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s any clean" e.name f.cf_name)
            []
            (codes (V.check f.cf_hlir) @ codes (V.check f.cf_lil)))
        c.Longnail.Flow.funcs)
    Isax.Registry.all

(* ---- verifier: rejects curated malformed graphs ---- *)

let expect_codes name expected g level =
  let got = codes (V.check ?level g) in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "%s reports %s" name c) true (List.mem c got))
    expected

let test_verifier_rejects () =
  let v32 i = mk_val i (u 32) in
  (* unknown operation *)
  expect_codes "unknown op" [ "E0510" ]
    (mk_graph [ mk_op "hwarith.bogus" [] [ v32 0 ] ])
    (Some `Hlir);
  (* wrong arity: hwarith.add with one operand *)
  expect_codes "bad arity" [ "E0510" ]
    (mk_graph
       [
         mk_op "hw.constant" [] [ v32 0 ]
           ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 32) 1)) ];
         mk_op ~oid:1 "hwarith.add" [ v32 0 ] [ v32 1 ];
       ])
    (Some `Hlir);
  (* missing required attribute on hw.constant *)
  expect_codes "missing attr" [ "E0510" ]
    (mk_graph [ mk_op "hw.constant" [] [ v32 0 ] ])
    (Some `Hlir);
  (* comb width rule: operand widths must equal the result width *)
  expect_codes "comb width" [ "E0510" ]
    (mk_graph
       [
         mk_op "lil.read_rs1" [] [ v32 0 ];
         mk_op ~oid:1 "lil.read_rs2" [] [ mk_val 1 (u 16) ];
         mk_op ~oid:2 "comb.add" [ v32 0; mk_val 1 (u 16) ] [ v32 2 ];
         mk_op ~oid:3 "lil.write_rd" [ v32 2 ] [];
         mk_op ~oid:4 "lil.sink" [] [];
       ])
    (Some `Lil);
  (* unknown icmp predicate *)
  expect_codes "bad predicate" [ "E0510" ]
    (mk_graph
       [
         mk_op "coredsl.get" [] [ v32 0 ] ~attrs:[ ("state", M.A_str "X") ];
         mk_op ~oid:1 "hwarith.icmp" [ v32 0; v32 0 ]
           [ mk_val 1 (u 1) ]
           ~attrs:[ ("predicate", M.A_str "spaceship") ];
       ])
    (Some `Hlir);
  (* use before (or without) definition *)
  expect_codes "use before def" [ "E0511" ]
    (mk_graph [ mk_op "hwarith.not" [ v32 99 ] [ v32 0 ] ])
    (Some `Hlir);
  (* double definition *)
  expect_codes "double def" [ "E0511" ]
    (mk_graph
       [
         mk_op "coredsl.get" [] [ v32 0 ] ~attrs:[ ("state", M.A_str "X") ];
         mk_op ~oid:1 "coredsl.get" [] [ v32 0 ] ~attrs:[ ("state", M.A_str "X") ];
       ])
    (Some `Hlir);
  (* operand type disagrees with the defining result type *)
  expect_codes "type mismatch" [ "E0511" ]
    (mk_graph
       [
         mk_op "coredsl.get" [] [ v32 0 ] ~attrs:[ ("state", M.A_str "X") ];
         mk_op ~oid:1 "hwarith.not" [ mk_val 0 (u 8) ] [ mk_val 1 (u 8) ];
       ])
    (Some `Hlir);
  (* lil graph without the lil.sink terminator *)
  expect_codes "missing sink" [ "E0510" ]
    (mk_graph
       [ mk_op "lil.read_rs1" [] [ v32 0 ]; mk_op ~oid:1 "lil.write_rd" [ v32 0 ] [] ])
    (Some `Lil);
  (* dialect mixing: a hwarith op in a lil graph *)
  expect_codes "dialect mixing" [ "E0510" ]
    (mk_graph
       [
         mk_op "lil.read_rs1" [] [ v32 0 ];
         mk_op ~oid:1 "hwarith.not" [ v32 0 ] [ v32 1 ];
         mk_op ~oid:2 "lil.write_rd" [ v32 1 ] [];
         mk_op ~oid:3 "lil.sink" [] [];
       ])
    (Some `Lil);
  (* a good graph reports nothing *)
  Alcotest.(check (list string)) "good graph clean" [] (codes (V.check (good_hlir ())))

(* corrupting an optimized LIL graph must be caught at the `Lil level —
   the property the --verify-each sanitizer (E0512) relies on *)
let test_verifier_catches_corruption () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let f = List.hd c.Longnail.Flow.funcs in
  let lil = f.Longnail.Flow.cf_lil in
  (* drop the terminator *)
  let no_sink =
    { lil with M.body = List.filter (fun (o : M.op) -> o.M.opname <> "lil.sink") lil.M.body }
  in
  Alcotest.(check bool) "dropped sink caught" true (has_code "E0510" (V.check ~level:`Lil no_sink));
  (* drop a mid-graph definition: its users now use an undefined value *)
  let dropped =
    let def =
      List.find (fun (o : M.op) -> o.M.results <> [] && o.M.opname <> "lil.sink") lil.M.body
    in
    { lil with M.body = List.filter (fun (o : M.op) -> o.M.oid <> def.M.oid) lil.M.body }
  in
  Alcotest.(check bool) "dangling use caught" true
    (V.check ~level:`Lil dropped <> [])

(* ---- dataflow ---- *)

(* ranges: on a constant-only graph the interval analysis is exact and
   must agree with native arithmetic *)
let prop_ranges_exact =
  QCheck.Test.make ~name:"range analysis is exact on constant graphs" ~count:100
    (QCheck.triple (QCheck.int_bound 0xFFFF) (QCheck.int_bound 0xFFFF) (QCheck.int_bound 2))
    (fun (a, b, sel) ->
      let bld = M.builder () in
      let ca =
        M.add_op1 bld "hw.constant" [] (u 32) ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 32) a)) ]
      in
      let cb =
        M.add_op1 bld "hw.constant" [] (u 32) ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 32) b)) ]
      in
      let opname = List.nth [ "hwarith.add"; "hwarith.sub"; "hwarith.mul" ] sel in
      (* signed result type: hwarith subtraction of unsigned operands can
         go negative, and the interval is clamped to the result type *)
      let r = M.add_op1 bld opname [ ca; cb ] (Bitvec.signed_ty 40) in
      ignore (M.add_op bld "coredsl.set" [ r ] [] ~attrs:[ ("state", M.A_str "ACC") ]);
      let g = M.finish bld ~name:"const" ~kind:`Instruction () in
      let res = D.run D.ranges g in
      let expect =
        match sel with 0 -> a + b | 1 -> a - b | _ -> a * b
      in
      match res.D.fact_of r with
      | Some rng -> (
          match D.range_exact rng with
          | Some v -> Bn.equal v (Bn.of_int expect)
          | None -> false)
      | None -> false)

let test_range_of_ty () =
  let r = D.range_of_ty (u 8) in
  Alcotest.(check string) "u8 lo" "0" (Bn.to_string r.D.lo);
  Alcotest.(check string) "u8 hi" "255" (Bn.to_string r.D.hi);
  let s = D.range_of_ty (Bitvec.signed_ty 8) in
  Alcotest.(check string) "s8 lo" "-128" (Bn.to_string s.D.lo);
  Alcotest.(check string) "s8 hi" "127" (Bn.to_string s.D.hi)

let test_liveness () =
  let bld = M.builder () in
  let a = M.add_op1 bld "coredsl.get" [] (u 32) ~attrs:[ ("state", M.A_str "ACC") ] in
  let live = M.add_op1 bld "hwarith.not" [ a ] (u 32) in
  let dead = M.add_op1 bld "hwarith.add" [ a; a ] (u 33) in
  ignore (M.add_op bld "coredsl.set" [ live ] [] ~attrs:[ ("state", M.A_str "ACC") ]);
  let g = M.finish bld ~name:"live" ~kind:`Instruction () in
  let res = D.run D.liveness g in
  Alcotest.(check bool) "feeds a set: live" true (res.D.fact_of live);
  Alcotest.(check bool) "transitively live" true (res.D.fact_of a);
  Alcotest.(check bool) "unused compute: dead" false (res.D.fact_of dead)

(* convergence: the engine's transfer count stays within a small multiple
   of the graph size on every bundled HLIR graph *)
let test_dataflow_converges () =
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      List.iter
        (fun ti ->
          if Longnail.Flow.is_isax_instruction ti then begin
            let g = Ir.Hlir.lower_instruction tu ti in
            let n = List.length (M.all_ops g) in
            let check_spec name spec =
              let res = D.run spec g in
              if res.D.iterations > 8 * (n + 1) then
                Alcotest.failf "%s/%s: %s took %d transfers for %d ops" e.name
                  ti.Coredsl.Tast.ti_name name res.D.iterations n
            in
            check_spec "ranges" D.ranges;
            check_spec "liveness" D.liveness;
            check_spec "absint" A.spec
          end)
        tu.Coredsl.Tast.tinstrs)
    Isax.Registry.all

(* widening: a range that keeps growing is jumped to the type bound after
   [widen_threshold] changes, which is what makes fixpoints linear *)
let test_range_widening () =
  Alcotest.(check int) "threshold exported" 3 D.widen_threshold;
  let v = mk_val 0 (u 8) in
  let r lo hi = { D.lo = Bn.of_int lo; hi = Bn.of_int hi } in
  (match D.widen_range v (Some (r 0 10)) (Some (r 0 20)) with
  | Some w ->
      Alcotest.(check string) "lo kept" "0" (Bn.to_string w.D.lo);
      Alcotest.(check string) "hi widened to type bound" "255" (Bn.to_string w.D.hi)
  | None -> Alcotest.fail "widening lost the fact");
  (* a stable bound is left alone *)
  match D.widen_range v (Some (r 3 10)) (Some (r 2 10)) with
  | Some w ->
      Alcotest.(check string) "lo widened" "0" (Bn.to_string w.D.lo);
      Alcotest.(check string) "hi untouched" "10" (Bn.to_string w.D.hi)
  | None -> Alcotest.fail "widening lost the fact"

let test_reaching_writes () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let ti =
    List.find (fun t -> Longnail.Flow.is_isax_instruction t) tu.Coredsl.Tast.tinstrs
  in
  let g = Ir.Hlir.lower_instruction tu ti in
  let writes = D.reaching_writes g in
  Alcotest.(check bool) "dotprod writes state" true (writes <> []);
  List.iter
    (fun (state, (op : M.op)) ->
      Alcotest.(check bool)
        (Printf.sprintf "write op %s is a set/store" op.M.opname)
        true
        (List.mem op.M.opname [ "coredsl.set"; "coredsl.store" ]);
      Alcotest.(check bool) "state name nonempty" true (state <> ""))
    writes

(* ---- linter ---- *)

(* a one-instruction unit around [behavior], in the fuzz-harness shape *)
let lint_src behavior =
  Printf.sprintf
    {|
import "RV32I.core_desc"
InstructionSet LINTME extends RV32I {
  instructions {
    LT {
      encoding: 7'd9 :: rs2[4:0] :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b1111011;
      behavior: {
%s
      }
    }
  }
}
|}
    behavior

let lint_of behavior =
  L.lint_unit (Coredsl.compile ~target:"LINTME" (lint_src behavior))

let expect_warning name behavior code =
  let ds = lint_of behavior in
  Alcotest.(check bool)
    (Printf.sprintf "%s emits %s (got: %s)" name code (String.concat "," (codes ds)))
    true (has_code code ds);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool) "severity is Warning" true (d.Diag.severity = Diag.Warning);
      Alcotest.(check bool) "code registered" true (Diag.is_registered d.Diag.code))
    ds

let test_lint_catalog () =
  (* W1001: a computed value never used *)
  expect_warning "dead assignment"
    {|unsigned<32> a = X[rs1];
      unsigned<32> t = (unsigned<32>)(a * a);
      if (rd != 0) X[rd] = a;|}
    "W1001";
  (* W1002: rs2 appears in the encoding but never in the behavior *)
  expect_warning "unused field" {|if (rd != 0) X[rd] = X[rs1];|} "W1002";
  (* W1004: a provably constant branch condition (literal comparisons are
     folded by the front end, so compare a 5-bit field against 100 —
     only the range analysis can see that rd <= 31) *)
  expect_warning "constant condition"
    {|unsigned<32> a = X[rs1];
      if (rd > 100) { a = (unsigned<32>)(a + X[rs2]); }
      if (rd != 0) X[rd] = a;|}
    "W1004";
  (* W1005: shift amount provably >= the operand width *)
  expect_warning "oversized shift"
    {|unsigned<32> a = X[rs1];
      if (rd != 0) X[rd] = (unsigned<32>)((a << 40) + X[rs2]);|}
    "W1005";
  (* W1006: a local read before any assignment *)
  expect_warning "read before assign"
    {|unsigned<32> t;
      unsigned<32> a = (unsigned<32>)(t + X[rs1]);
      if (rd != 0) X[rd] = (unsigned<32>)(a + X[rs2]);|}
    "W1006";
  (* ...also by a local that shadows an assigned one, reported under its
     source name *)
  let shadowed =
    lint_of
      {|unsigned<32> t = X[rs1];
        if (X[rs2] != 0) { unsigned<32> t; X[rd] = t; }
        if (rd != 0) X[rd] = t;|}
  in
  Alcotest.(check (list string))
    "shadowed read before assign"
    [ "instruction LT: local 't' is read before any assignment" ]
    (List.filter_map
       (fun (d : Diag.t) -> if d.code = "W1006" then Some d.message else None)
       shadowed);
  (* W1007: the instruction writes no architectural state at all *)
  expect_warning "writes nothing" {|unsigned<32> a = (unsigned<32>)(X[rs1] + X[rs2]);|}
    "W1007"

(* the bundled ISAXes have a small, known warning set (the checked-in
   docs/LINT_GOLDEN.txt contract, asserted here in-process) *)
let test_lint_bundled () =
  let expect = [ ("sparkle", 2); ("sqrt_tightly", 1); ("sqrt_decoupled", 1) ] in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let ds = L.lint_unit (Isax.Registry.compile e) in
      let n = match List.assoc_opt e.name expect with Some n -> n | None -> 0 in
      Alcotest.(check int)
        (Printf.sprintf "%s warning count (got: %s)" e.name (String.concat "," (codes ds)))
        n (List.length ds);
      List.iter
        (fun (d : Diag.t) ->
          Alcotest.(check bool) "is W1001" true (d.Diag.code = "W1001");
          Alcotest.(check bool) "has span" true (d.Diag.span <> None))
        ds)
    Isax.Registry.all

let test_lint_promote () =
  let ds = L.lint_unit (Isax.Registry.compile_by_name "sparkle") in
  Alcotest.(check bool) "sparkle warns" true (ds <> []);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool) "promoted to Error" true (d.Diag.severity = Diag.Error))
    (L.promote ds)

let test_w_codes_registered () =
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool) (code ^ " registered") true (Diag.is_registered code))
    L.lint_codes;
  Alcotest.(check bool) "catalog covers W1001..W1010" true
    (List.for_all
       (fun c -> List.mem_assoc c L.lint_codes)
       [
         "W1001"; "W1002"; "W1003"; "W1004"; "W1005"; "W1006"; "W1007"; "W1008";
         "W1009"; "W1010";
       ])

(* ---- netlist checks ---- *)

let comb ~out ~width ~op inputs = Rtl.Netlist.Comb { out; width; op; attrs = []; inputs }

let port name width = { Rtl.Netlist.port_name = name; port_width = width; port_signal = name }

let test_netcheck () =
  let base ~nodes ~outputs =
    { Rtl.Netlist.mod_name = "T"; inputs = [ port "i" 8 ]; outputs; nodes }
  in
  (* clean: i -> not -> o *)
  let clean =
    base
      ~nodes:[ comb ~out:"n" ~width:8 ~op:"comb.xor" [ "i"; "i" ] ]
      ~outputs:[ { Rtl.Netlist.port_name = "o"; port_width = 8; port_signal = "n" } ]
  in
  Alcotest.(check (list string)) "clean netlist" [] (codes (N.check clean));
  (* multiple drivers: two nodes share an output name *)
  let multi =
    base
      ~nodes:
        [
          comb ~out:"n" ~width:8 ~op:"comb.xor" [ "i"; "i" ];
          comb ~out:"n" ~width:8 ~op:"comb.and" [ "i"; "i" ];
        ]
      ~outputs:[ { Rtl.Netlist.port_name = "o"; port_width = 8; port_signal = "n" } ]
  in
  Alcotest.(check bool) "multiple drivers" true (has_code "E0520" (N.check multi));
  (* a node shadowing an input port is also a double drive *)
  let shadow =
    base
      ~nodes:[ comb ~out:"i" ~width:8 ~op:"comb.xor" [ "i"; "i" ] ]
      ~outputs:[ { Rtl.Netlist.port_name = "o"; port_width = 8; port_signal = "i" } ]
  in
  Alcotest.(check bool) "input shadowed" true (has_code "E0520" (N.check shadow));
  (* undefined signal *)
  let undef =
    base
      ~nodes:[ comb ~out:"n" ~width:8 ~op:"comb.xor" [ "i"; "ghost" ] ]
      ~outputs:[ { Rtl.Netlist.port_name = "o"; port_width = 8; port_signal = "n" } ]
  in
  Alcotest.(check bool) "undefined signal" true (has_code "E0522" (N.check undef));
  (* combinational cycle a -> b -> a, with the path in the message *)
  let cyc =
    base
      ~nodes:
        [
          comb ~out:"a" ~width:8 ~op:"comb.xor" [ "b"; "i" ];
          comb ~out:"b" ~width:8 ~op:"comb.xor" [ "a"; "i" ];
        ]
      ~outputs:[ { Rtl.Netlist.port_name = "o"; port_width = 8; port_signal = "a" } ]
  in
  let ds = N.check cyc in
  Alcotest.(check bool) "cycle found" true (has_code "E0521" ds);
  let d = List.find (fun (d : Diag.t) -> d.Diag.code = "E0521") ds in
  let mentions s =
    let msg = d.Diag.message in
    let nl = String.length s and hl = String.length msg in
    let rec go i = i + nl <= hl && (String.sub msg i nl = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "path names the signals" true (mentions "a" && mentions "b");
  (* the same loop broken by a register is not a combinational cycle *)
  let through_reg =
    base
      ~nodes:
        [
          comb ~out:"a" ~width:8 ~op:"comb.xor" [ "r"; "i" ];
          Rtl.Netlist.Reg { out = "r"; width = 8; next = "a"; enable = None; init = None };
        ]
      ~outputs:[ { Rtl.Netlist.port_name = "o"; port_width = 8; port_signal = "a" } ]
  in
  Alcotest.(check (list string)) "register breaks the cycle" [] (codes (N.check through_reg));
  (* verify raises on the first violation *)
  (match N.check multi with
  | d0 :: _ -> (
      try
        N.verify multi;
        Alcotest.fail "verify did not raise"
      with N.Netcheck_error d -> Alcotest.(check string) "first violation" d0.Diag.code d.Diag.code)
  | [] -> Alcotest.fail "expected violations")

let test_signal_provenance () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let f = List.hd c.Longnail.Flow.funcs in
  let lil = f.Longnail.Flow.cf_lil in
  (* every hwgen signal named after an SSA value with a recorded span
     resolves; unknown names do not *)
  let resolved = ref 0 in
  List.iter
    (fun node ->
      match N.signal_provenance lil (Rtl.Netlist.node_out node) with
      | Some sp ->
          incr resolved;
          Alcotest.(check bool) "span valid" true (Diag.span_is_valid sp)
      | None -> ())
    f.Longnail.Flow.cf_hw.Longnail.Hwgen.netlist.Rtl.Netlist.nodes;
  Alcotest.(check bool) "some signals have provenance" true (!resolved > 0);
  Alcotest.(check bool) "unknown name has none" true (N.signal_provenance lil "clk" = None)

(* ---- the --verify-each sanitizer ---- *)

(* byte-identical SV and YAML with and without the sanitizer, over the
   full bundled ISAX x core grid (the acceptance contract; three combos
   are re-checked from the CLI by scripts/check_verify_each.sh) *)
let test_verify_each_equivalent () =
  List.iter
    (fun (core : Scaiev.Datasheet.t) ->
      List.iter
        (fun (e : Isax.Registry.entry) ->
          let tu = Isax.Registry.compile e in
          let plain =
            Longnail.Flow.compile_request (Longnail.Flow.Request.make ()) core tu
          in
          let checked =
            Longnail.Flow.compile_request
              (Longnail.Flow.Request.make ~verify_each:true ())
              core tu
          in
          let what = Printf.sprintf "%s on %s" e.name core.Scaiev.Datasheet.core_name in
          Alcotest.(check string) (what ^ ": yaml equal")
            plain.Longnail.Flow.config_yaml checked.Longnail.Flow.config_yaml;
          List.iter2
            (fun (a : Longnail.Flow.compiled_functionality)
                 (b : Longnail.Flow.compiled_functionality) ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s: sv equal" what a.cf_name)
                a.cf_sv b.cf_sv)
            plain.Longnail.Flow.funcs checked.Longnail.Flow.funcs)
        Isax.Registry.all)
    (Scaiev.Core_registry.datasheets ())

(* ---- bit-level abstract interpretation ---- *)

let band = Bn.bitwise ( land )

let test_absint_basics () =
  let bld = M.builder () in
  let a = M.add_op1 bld "lil.read_rs1" [] (u 32) in
  let c =
    M.add_op1 bld "hw.constant" [] (u 32)
      ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 32) 0xFF)) ]
  in
  (* masking pins the high 24 bits to zero *)
  let masked = M.add_op1 bld "comb.and" [ a; c ] (u 32) in
  (* adding two byte-bounded values pins the high 23 bits *)
  let sum = M.add_op1 bld "comb.add" [ masked; masked ] (u 32) in
  ignore (M.add_op bld "lil.write_rd" [ sum ] []);
  ignore (M.add_op bld "lil.sink" [] []);
  let g = M.finish bld ~name:"mask" ~kind:`Instruction () in
  let res = A.analyze g in
  (match A.fact_of res masked with
  | Some f ->
      Alcotest.(check int) "and: 24 leading bits known"
        24
        (A.leading_known ~width:32 f.A.f_bits)
  | None -> Alcotest.fail "no fact for masked");
  match A.fact_of res sum with
  | Some f ->
      Alcotest.(check bool) "add: high bits known" true
        (A.leading_known ~width:32 f.A.f_bits >= 23)
  | None -> Alcotest.fail "no fact for sum"

(* soundness on random graphs: every fact agrees with concrete evaluation
   (the bits half contains the pattern, the interval contains the value) *)

let check_fact_sound ~what (res : A.result) (v : M.value) (concrete : Bn.t) =
  match A.fact_of res v with
  | None -> QCheck.Test.fail_reportf "%s: no fact for %%%d" what v.M.vid
  | Some f ->
      let w = v.M.vty.Bitvec.width in
      let pat = Bn.mod_pow2 concrete w in
      if not (Bn.equal (band pat f.A.f_bits.bk) f.A.f_bits.bv) then
        QCheck.Test.fail_reportf "%s: %%%d bits claim bk=%s bv=%s but pattern=%s" what
          v.M.vid
          (Bn.to_string f.A.f_bits.bk)
          (Bn.to_string f.A.f_bits.bv)
          (Bn.to_string pat);
      if
        Bn.compare concrete f.A.f_range.D.lo < 0
        || Bn.compare concrete f.A.f_range.D.hi > 0
      then
        QCheck.Test.fail_reportf "%s: %%%d = %s outside claimed [%s,%s]" what v.M.vid
          (Bn.to_string concrete)
          (Bn.to_string f.A.f_range.D.lo)
          (Bn.to_string f.A.f_range.D.hi);
      true

(* random straight-line comb graphs: uniform width, the wrapping algebra *)
let prop_absint_sound_comb =
  QCheck.Test.make ~name:"absint is sound on random comb graphs" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (seed, x1, x2) ->
      let st = Random.State.make [| seed |] in
      let w = 1 + Random.State.int st 12 in
      let bld = M.builder () in
      let i1 = M.add_op1 bld "lil.read_rs1" [] (u w) in
      let i2 = M.add_op1 bld "lil.read_rs2" [] (u w) in
      let cst =
        M.add_op1 bld "hw.constant" [] (u w)
          ~attrs:
            [ ("value", M.A_bv (Bitvec.of_int (u w) (Random.State.int st (1 lsl w)))) ]
      in
      let pool = ref [ i1; i2; cst ] in
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      let nops = 3 + Random.State.int st 6 in
      for _ = 1 to nops do
        let opname =
          List.nth
            [ "comb.add"; "comb.sub"; "comb.mul"; "comb.and"; "comb.or"; "comb.xor" ]
            (Random.State.int st 6)
        in
        let r = M.add_op1 bld opname [ pick (); pick () ] (u w) in
        pool := r :: !pool
      done;
      ignore (M.add_op bld "lil.write_rd" [ List.hd !pool ] []);
      ignore (M.add_op bld "lil.sink" [] []);
      let g = M.finish bld ~name:"rand_comb" ~kind:`Instruction () in
      (* concrete evaluation through the one true comb semantics *)
      let env : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.replace env i1.M.vid (Bitvec.of_int (u w) (x1 land ((1 lsl w) - 1)));
      Hashtbl.replace env i2.M.vid (Bitvec.of_int (u w) (x2 land ((1 lsl w) - 1)));
      List.iter
        (fun (op : M.op) ->
          if Ir.Comb_eval.is_comb op.M.opname then
            match op.M.results with
            | [ r ] ->
                let ops = List.map (fun (v : M.value) -> Hashtbl.find env v.M.vid) op.M.operands in
                Hashtbl.replace env r.M.vid
                  (Ir.Comb_eval.eval ~name:op.M.opname ~attrs:op.M.attrs ~ops
                     ~result_width:r.M.vty.Bitvec.width)
            | _ -> ())
        (M.all_ops g);
      let res = A.analyze g in
      Hashtbl.fold
        (fun vid x acc ->
          let v = { M.vid; vty = u w; vhint = "" } in
          acc && check_fact_sound ~what:"comb" res v (Bitvec.pattern x))
        env true)

(* random straight-line hwarith graphs: the non-wrapping algebra, result
   types wide enough that values never overflow *)
let prop_absint_sound_hwarith =
  QCheck.Test.make ~name:"absint is sound on random hwarith graphs" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (seed, x1, x2) ->
      let st = Random.State.make [| seed |] in
      let bld = M.builder () in
      let w1 = 2 + Random.State.int st 9 and w2 = 2 + Random.State.int st 9 in
      let i1 = M.add_op1 bld "coredsl.get" [] (u w1) ~attrs:[ ("state", M.A_str "R1") ] in
      let i2 = M.add_op1 bld "coredsl.get" [] (u w2) ~attrs:[ ("state", M.A_str "R2") ] in
      let c = Random.State.int st (1 lsl 8) in
      let cst =
        M.add_op1 bld "hw.constant" [] (u 8)
          ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 8) c)) ]
      in
      let v1 = Bn.of_int (x1 land ((1 lsl w1) - 1)) in
      let v2 = Bn.of_int (x2 land ((1 lsl w2) - 1)) in
      (* the pool carries each value's concrete meaning alongside it *)
      let pool = ref [ (i1, v1); (i2, v2); (cst, Bn.of_int c) ] in
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      let signed_ty (v : M.value) = v.M.vty.Bitvec.signed in
      let nops = 3 + Random.State.int st 6 in
      for _ = 1 to nops do
        let a, va = pick () and b, vb = pick () in
        let wa = a.M.vty.Bitvec.width and wb = b.M.vty.Bitvec.width in
        if max wa wb <= 24 then begin
          let any_signed = signed_ty a || signed_ty b in
          match Random.State.int st 5 with
          | 0 ->
              let ty =
                if any_signed then Bitvec.signed_ty (max wa wb + 2)
                else u (max wa wb + 1)
              in
              let r = M.add_op1 bld "hwarith.add" [ a; b ] ty in
              pool := (r, Bn.add va vb) :: !pool
          | 1 ->
              let r = M.add_op1 bld "hwarith.sub" [ a; b ] (Bitvec.signed_ty (max wa wb + 2)) in
              pool := (r, Bn.sub va vb) :: !pool
          | 2 ->
              let ty =
                if any_signed then Bitvec.signed_ty (wa + wb + 1) else u (wa + wb)
              in
              let r = M.add_op1 bld "hwarith.mul" [ a; b ] ty in
              pool := (r, Bn.mul va vb) :: !pool
          | 3 ->
              if (not (signed_ty a)) && not (signed_ty b) then begin
                let r = M.add_op1 bld "hwarith.band" [ a; b ] (u (max wa wb)) in
                pool := (r, band va vb) :: !pool
              end
          | _ ->
              let pred, holds =
                match Random.State.int st 3 with
                | 0 -> ("eq", Bn.compare va vb = 0)
                | 1 -> ("lt", Bn.compare va vb < 0)
                | _ -> ("ge", Bn.compare va vb >= 0)
              in
              let r =
                M.add_op1 bld "hwarith.icmp" [ a; b ] (u 1)
                  ~attrs:[ ("predicate", M.A_str pred) ]
              in
              pool := (r, if holds then Bn.one else Bn.zero) :: !pool
        end
      done;
      let last, _ = List.hd !pool in
      ignore (M.add_op bld "coredsl.set" [ last ] [] ~attrs:[ ("state", M.A_str "ACC") ]);
      let g = M.finish bld ~name:"rand_hw" ~kind:`Instruction () in
      let res = A.analyze g in
      List.for_all
        (fun ((v : M.value), concrete) -> check_fact_sound ~what:"hwarith" res v concrete)
        !pool)

(* ---- translation validation ---- *)

(* a tiny LIL pair differing by a constant: TV must produce the E0530
   counterexample (the injected-miscompile acceptance test) *)
let tv_graph delta =
  let bld = M.builder () in
  let a = M.add_op1 bld "lil.read_rs1" [] (u 8) in
  let c =
    M.add_op1 bld "hw.constant" [] (u 8)
      ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 8) delta)) ]
  in
  let s = M.add_op1 bld "comb.add" [ a; c ] (u 8) in
  ignore (M.add_op bld "lil.write_rd" [ s ] []);
  ignore (M.add_op bld "lil.sink" [] []);
  M.finish bld ~name:"tv" ~kind:`Instruction ()

let test_tv_accepts_identity () =
  let g = tv_graph 1 in
  let v = Tv.validate ~pass_name:"identity" ~original:g ~optimized:g in
  Alcotest.(check bool) "exhaustive within budget" true v.Tv.tv_exhaustive;
  Alcotest.(check int) "whole 8-bit space driven" 256 v.Tv.tv_vectors

let test_tv_catches_miscompile () =
  match Tv.validate ~pass_name:"bad_pass" ~original:(tv_graph 1) ~optimized:(tv_graph 2) with
  | exception Diag.Fatal (d :: _) ->
      Alcotest.(check string) "code" "E0530" d.Diag.code;
      let mentions s =
        let msg = d.Diag.message in
        let nl = String.length s and hl = String.length msg in
        let rec go i = i + nl <= hl && (String.sub msg i nl = s || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the pass" true (mentions "bad_pass")
  | _ -> Alcotest.fail "miscompile not caught"

(* beyond the exhaustive budget the sampled path must still catch it *)
let test_tv_catches_miscompile_sampled () =
  let wide delta =
    let bld = M.builder () in
    let a = M.add_op1 bld "lil.read_rs1" [] (u 32) in
    let b = M.add_op1 bld "lil.read_rs2" [] (u 32) in
    let s = M.add_op1 bld "comb.add" [ a; b ] (u 32) in
    let c =
      M.add_op1 bld "hw.constant" [] (u 32)
        ~attrs:[ ("value", M.A_bv (Bitvec.of_int (u 32) delta)) ]
    in
    let t = M.add_op1 bld "comb.xor" [ s; c ] (u 32) in
    ignore (M.add_op bld "lil.write_rd" [ t ] []);
    ignore (M.add_op bld "lil.sink" [] []);
    M.finish bld ~name:"tv_wide" ~kind:`Instruction ()
  in
  (match Tv.validate ~pass_name:"ok" ~original:(wide 0) ~optimized:(wide 0) with
  | v -> Alcotest.(check bool) "sampled, not exhaustive" false v.Tv.tv_exhaustive);
  match Tv.validate ~pass_name:"bad_wide" ~original:(wide 0) ~optimized:(wide 1) with
  | exception Diag.Fatal (d :: _) -> Alcotest.(check string) "code" "E0530" d.Diag.code
  | _ -> Alcotest.fail "wide miscompile not caught"

(* ---- width narrowing ---- *)

(* every LIL graph of every bundled ISAX, through the narrowing stage:
   the acceptance bar is rewrites in at least 3 ISAXes, each TV-checked *)
let bundled_narrow_stats () =
  List.map
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      let stats = ref Nw.zero_stats in
      let add (st : Nw.stats) =
        stats :=
          {
            !stats with
            Nw.ns_ops_rewritten = !stats.Nw.ns_ops_rewritten + st.Nw.ns_ops_rewritten;
            ns_bits_removed = !stats.Nw.ns_bits_removed + st.Nw.ns_bits_removed;
            ns_compares_folded = !stats.Nw.ns_compares_folded + st.Nw.ns_compares_folded;
            ns_selects_removed = !stats.Nw.ns_selects_removed + st.Nw.ns_selects_removed;
            ns_tv_validations = !stats.Nw.ns_tv_validations + st.Nw.ns_tv_validations;
          }
      in
      let narrow_of hlir fields =
        let lil = Ir.Passes.optimize (Ir.Lil.of_hlir tu.Coredsl.Tast.elab ~fields hlir) in
        let lil', st = Nw.narrow_graph lil in
        Analysis.Verifier.verify ~level:`Lil lil';
        add st
      in
      List.iter
        (fun ti ->
          if Longnail.Flow.is_isax_instruction ti then
            narrow_of (Ir.Hlir.lower_instruction tu ti) ti.Coredsl.Tast.fields)
        tu.Coredsl.Tast.tinstrs;
      List.iter
        (fun ta -> narrow_of (Ir.Hlir.lower_always tu ta) [])
        tu.Coredsl.Tast.talways;
      (e.name, !stats))
    Isax.Registry.all

let test_narrow_bundled () =
  let per_isax = bundled_narrow_stats () in
  let nonzero =
    List.filter (fun (_, (st : Nw.stats)) -> st.Nw.ns_bits_removed > 0) per_isax
  in
  let render =
    String.concat ", "
      (List.map
         (fun (n, (st : Nw.stats)) -> Printf.sprintf "%s:%d" n st.Nw.ns_bits_removed)
         per_isax)
  in
  Alcotest.(check bool)
    (Printf.sprintf "narrowing fires in >= 3 ISAXes (%s)" render)
    true
    (List.length nonzero >= 3);
  (* every graph-changing run was translation-validated *)
  List.iter
    (fun (name, (st : Nw.stats)) ->
      if
        st.Nw.ns_ops_rewritten + st.Nw.ns_compares_folded + st.Nw.ns_selects_removed > 0
      then
        Alcotest.(check bool)
          (name ^ ": rewrites were TV-checked")
          true (st.Nw.ns_tv_validations > 0))
    per_isax

(* narrow on/off cosim equality: identical stimuli drive bit-identical
   responses across the full bundled grid on the reference core *)
let render_response (r : Longnail.Cosim.response) =
  let bv = function
    | Some (x, valid) -> Printf.sprintf "%s/%b" (Bitvec.to_hex_string x) valid
    | None -> "-"
  in
  Printf.sprintf "rd=%s pc=%s cust=[%s] memw=%s memr=%s cycles=%d" (bv r.rd_write)
    (bv r.pc_write)
    (String.concat ";"
       (List.map
          (fun (w : Longnail.Cosim.custreg_write) ->
            Printf.sprintf "%s[%s]=%s/%b" w.cw_reg
              (match w.cw_index with Some i -> string_of_int i | None -> "")
              (Bitvec.to_hex_string w.cw_data) w.cw_valid)
          r.custreg_writes))
    (match r.mem_write with
    | Some (a, d, v) -> Printf.sprintf "%x:%s/%b" a (Bitvec.to_hex_string d) v
    | None -> "-")
    (match r.mem_read_request with
    | Some (a, v) -> Printf.sprintf "%x/%b" a v
    | None -> "-")
    r.cycles

let test_narrow_cosim_equivalent () =
  let core = Scaiev.Datasheet.vexriscv in
  let u32 = u 32 in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      let plain = Longnail.Flow.compile_request (Longnail.Flow.Request.make ()) core tu in
      let narrowed =
        Longnail.Flow.compile_request
          (Longnail.Flow.Request.make
             ~knobs:(Longnail.Flow.knobs ~narrow:true ())
             ())
          core tu
      in
      List.iter2
        (fun (a : Longnail.Flow.compiled_functionality)
             (b : Longnail.Flow.compiled_functionality) ->
          List.iteri
            (fun i (w1, w2) ->
              let stim =
                {
                  Longnail.Cosim.default_stimulus with
                  instr_word = Some (Bitvec.of_int u32 w1);
                  rs1 = Some (Bitvec.of_int u32 w2);
                  rs2 = Some (Bitvec.of_int u32 (w1 lxor w2));
                  pc = Some (Bitvec.of_int u32 0x400);
                }
              in
              let ra = Longnail.Cosim.run a stim and rb = Longnail.Cosim.run b stim in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s stim %d traces equal" e.name a.cf_name i)
                (render_response ra) (render_response rb))
            [
              (0x0020_80EB, 0xDEADBEEF);
              (0x0020_80EB, 0x00000001);
              (0xFFFF_FFFF, 0x7FFFFFFF);
              (0x0000_0000, 0x0000_0000);
            ])
        plain.Longnail.Flow.funcs narrowed.Longnail.Flow.funcs)
    Isax.Registry.all

let () =
  Alcotest.run "analysis"
    [
      ( "verifier",
        [
          Alcotest.test_case "accepts all bundled graphs" `Slow test_verifier_accepts_bundled;
          Alcotest.test_case "rejects malformed graphs" `Quick test_verifier_rejects;
          Alcotest.test_case "catches pass corruption" `Quick test_verifier_catches_corruption;
        ] );
      ( "dataflow",
        [
          QCheck_alcotest.to_alcotest prop_ranges_exact;
          Alcotest.test_case "range_of_ty" `Quick test_range_of_ty;
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "convergence bound" `Slow test_dataflow_converges;
          Alcotest.test_case "range widening" `Quick test_range_widening;
          Alcotest.test_case "reaching writes" `Quick test_reaching_writes;
        ] );
      ( "absint",
        [
          Alcotest.test_case "known bits basics" `Quick test_absint_basics;
          QCheck_alcotest.to_alcotest prop_absint_sound_comb;
          QCheck_alcotest.to_alcotest prop_absint_sound_hwarith;
        ] );
      ( "tv",
        [
          Alcotest.test_case "identity is exhaustive" `Quick test_tv_accepts_identity;
          Alcotest.test_case "injected miscompile (E0530)" `Quick test_tv_catches_miscompile;
          Alcotest.test_case "sampled miscompile (E0530)" `Quick
            test_tv_catches_miscompile_sampled;
        ] );
      ( "narrow",
        [
          Alcotest.test_case "bundled rewrites >= 3 ISAXes" `Slow test_narrow_bundled;
          Alcotest.test_case "cosim traces equal on/off" `Slow test_narrow_cosim_equivalent;
        ] );
      ( "lint",
        [
          Alcotest.test_case "catalog W1001..W1007" `Quick test_lint_catalog;
          Alcotest.test_case "bundled golden set" `Slow test_lint_bundled;
          Alcotest.test_case "werror promotion" `Quick test_lint_promote;
          Alcotest.test_case "codes registered" `Quick test_w_codes_registered;
        ] );
      ( "netcheck",
        [
          Alcotest.test_case "structural violations" `Quick test_netcheck;
          Alcotest.test_case "signal provenance" `Quick test_signal_provenance;
        ] );
      ( "verify-each",
        [ Alcotest.test_case "byte-identical grid" `Slow test_verify_each_equivalent ] );
    ]
