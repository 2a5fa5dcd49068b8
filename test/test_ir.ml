(* Tests for the IR layer: Hlir lowering (unrolling, inlining,
   predication), Lil lowering (interface mapping, hwarith legalization),
   and the optimization passes. *)

open Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_instr ?(extra_state = "") body =
  let src =
    Printf.sprintf
      {|
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  architectural_state { %s }
  instructions {
    TEST {
      encoding: 12'd0 :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b1111011;
      behavior: { %s }
    }
  }
}
|}
      extra_state body
  in
  let tu = Coredsl.compile ~target:"T" src in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "TEST") in
  (tu, ti)

let lower ?extra_state body =
  let tu, ti = compile_instr ?extra_state body in
  let hg = Hlir.lower_instruction tu ti in
  Analysis.Verifier.verify hg;
  let lg = Lil.of_hlir tu.elab ~fields:ti.fields hg in
  Analysis.Verifier.verify lg;
  let lg = Passes.optimize lg in
  Analysis.Verifier.verify lg;
  (tu, ti, hg, lg)

let count_ops g name =
  List.length (List.filter (fun (o : Mir.op) -> o.opname = name) (Mir.all_ops g))

(* ---- Hlir ---- *)

let test_addi_shape () =
  (* the running example of Figure 5: X[rd] = X[rs1] + imm *)
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let hg = Hlir.lower_instruction tu addi in
  Analysis.Verifier.verify hg;
  check_int "one get" 1 (count_ops hg "coredsl.get");
  check_int "one set" 1 (count_ops hg "coredsl.set");
  check_int "one add" 1 (count_ops hg "hwarith.add");
  check_bool "has casts" true (count_ops hg "hwarith.cast" >= 1)

let test_loop_unrolling () =
  let _, _, hg, _ =
    lower
      "signed<32> acc = 0; for (int i = 0; i < 4; i += 1) { acc += (signed) X[rs1][i+7:i]; } \
       X[rd] = (unsigned) acc;"
  in
  (* four unrolled additions *)
  check_bool "unrolled adds" true (count_ops hg "hwarith.add" >= 1);
  (* the loop is gone: lowering a constant-bound loop terminates and
     produces a pure dataflow graph *)
  check_int "no loop ops remain" 0 (count_ops hg "scf.for")

let test_loop_fully_constant_folds () =
  (* loop over constants folds to a single constant write *)
  let _, _, _, lg =
    lower "signed<32> acc = 0; for (int i = 0; i < 4; i += 1) { acc += i; } X[rd] = (unsigned) acc;"
  in
  (* 0+1+2+3 = 6 must appear as a constant *)
  let has_six =
    List.exists
      (fun (o : Mir.op) ->
        o.opname = "hw.constant"
        && match Mir.attr_bv o "value" with Some v -> Bitvec.to_int v = 6 | None -> false)
      (Mir.all_ops lg)
  in
  check_bool "constant 6" true has_six

let test_function_inlining_no_muxes () =
  (* a pure helper called under a predicate must not generate per-assignment
     muxes (scope-aware predication) *)
  let tu = Isax.Registry.compile_by_name "sparkle" in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "ALZ_X") in
  let hg = Hlir.lower_instruction tu ti in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:ti.fields hg) in
  check_int "no muxes in alzette datapath" 0 (count_ops lg "comb.mux")

let test_if_conversion () =
  let _, _, _, lg = lower "if (X[rs1] > 5) X[rd] = (unsigned<32>)1; else X[rd] = (unsigned<32>)2;" in
  (* both branches merge into one predicated write_rd with a mux *)
  check_int "single write_rd" 1 (count_ops lg "lil.write_rd");
  check_bool "mux present" true (count_ops lg "comb.mux" >= 1)

let test_spawn_attr_propagation () =
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "SQRT_D") in
  let hg = Hlir.lower_instruction tu ti in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:ti.fields hg) in
  let wr = List.find (fun (o : Mir.op) -> o.opname = "lil.write_rd") (Mir.all_ops lg) in
  check_bool "write_rd marked spawn" true (Mir.attr_bool wr "spawn")

let test_write_merging () =
  (* two conditional writes to the same register merge into one *)
  let _, _, _, lg =
    lower ~extra_state:"register unsigned<32> R;"
      "if (X[rs1] > 5) R = X[rs1]; if (X[rs1] > 9) R = (unsigned<32>)0;"
  in
  check_int "one custreg write" 1 (count_ops lg "lil.write_custreg")

let test_read_after_write () =
  (* a read after a write observes the written value: the final value of
     R2 is rs1+1, computed from the written R, not a second read *)
  let _, _, _, lg =
    lower ~extra_state:"register unsigned<32> R; register unsigned<32> R2;"
      "R = (unsigned<32>)(X[rs1] + 1); R2 = R;"
  in
  check_int "only one custreg read (none)" 0 (count_ops lg "lil.read_custreg");
  check_int "two writes" 2 (count_ops lg "lil.write_custreg")

(* ---- Lil ---- *)

let test_lil_interface_mapping () =
  let tu = Coredsl.compile_rv32i () in
  let lw = Option.get (Coredsl.Tast.find_tinstr tu "LW") in
  let hg = Hlir.lower_instruction tu lw in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:lw.fields hg) in
  check_int "read_rs1" 1 (count_ops lg "lil.read_rs1");
  check_int "read_mem" 1 (count_ops lg "lil.read_mem");
  check_int "write_rd" 1 (count_ops lg "lil.write_rd");
  Lil.validate_single_use lg

let test_lil_rejects_arbitrary_x_index () =
  let tu, ti = compile_instr "X[5] = (unsigned<32>)1;" in
  let hg = Hlir.lower_instruction tu ti in
  (try
     ignore (Lil.of_hlir tu.elab ~fields:ti.fields hg);
     Alcotest.fail "expected lil error"
   with Lil.Lil_error _ -> ())

let test_lil_single_use_enforcement () =
  (* two loads from different addresses exceed the single RdMem budget *)
  let tu, ti = compile_instr "X[rd] = (unsigned<32>)(MEM[X[rs1]] + MEM[(unsigned<32>)(X[rs1]+100)]);" in
  let hg = Hlir.lower_instruction tu ti in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:ti.fields hg) in
  (try
     Lil.validate_single_use lg;
     Alcotest.fail "expected single-use violation"
   with Lil.Lil_error _ -> ())

let test_legalization_sign_extension () =
  (* signed cast becomes replicate + concat, like Figure 5c *)
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let hg = Hlir.lower_instruction tu addi in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:addi.fields hg) in
  check_bool "replicate" true (count_ops lg "comb.replicate" >= 1);
  check_bool "concat" true (count_ops lg "comb.concat" >= 1);
  check_int "one comb.add" 1 (count_ops lg "comb.add")

(* ---- passes ---- *)

let test_cse_dedups_reads () =
  (* X[rs1] read twice collapses to one read_rs1 *)
  let _, _, _, lg = lower "X[rd] = (unsigned<32>)(X[rs1] + X[rs1]);" in
  check_int "one rs1 read" 1 (count_ops lg "lil.read_rs1")

let test_dce_removes_dead_logic () =
  let _, _, _, lg = lower "unsigned<64> dead = X[rs1] * X[rs1]; X[rd] = X[rs1];" in
  check_int "dead multiply removed" 0 (count_ops lg "comb.mul")

let test_constant_fold () =
  let _, _, _, lg = lower "X[rd] = (unsigned<32>)(2 + 3);" in
  check_int "no adds" 0 (count_ops lg "comb.add")

let test_constant_shift_lowering () =
  let _, _, _, lg = lower "X[rd] = (unsigned<32>)(X[rs1] << 3);" in
  check_int "no shifter" 0 (count_ops lg "comb.shl");
  check_bool "wiring instead" true (count_ops lg "comb.concat" >= 1)

let test_dynamic_shift_stays () =
  let _, _, _, lg =
    lower
      ~extra_state:"register unsigned<32> AMT;"
      "X[rd] = (unsigned<32>)(X[rs1] << (AMT & 31));"
  in
  check_int "real shifter" 1 (count_ops lg "comb.shl")

(* a graph of the ops [f] adds over one rs1 read *)
let graph_of f =
  let b = Mir.builder () in
  f b (Mir.add_op1 b "lil.read_rs1" [] (Bitvec.unsigned_ty 32));
  Mir.finish b ~name:"t" ~kind:`Instruction ()

(* CSE keeps apart ops that differ only in a result type or in the kind
   of an attribute (a printed key once merged A_int 5 with A_str "5") *)
let test_cse_keeps_apart () =
  let u = Bitvec.unsigned_ty in
  let g =
    graph_of (fun b x ->
        List.iter
          (fun ty -> ignore (Mir.add_op1 b "comb.extract" [ x ] ty ~attrs:[ ("lowBit", Mir.A_int 0) ]))
          [ u 4; u 8; Bitvec.signed_ty 8 ];
        List.iter
          (fun a -> ignore (Mir.add_op1 b "comb.parity" [ x ] (u 1) ~attrs:[ ("k", a) ]))
          [ Mir.A_int 5; A_str "5"; A_bool true; A_str "true" ])
  in
  check_bool "nothing merges" true (Passes.cse g == g)

(* CSE merges constants of one width and bit pattern, whatever their
   signedness, and then the ops that use them *)
let test_cse_merges_constants () =
  let u = Bitvec.unsigned_ty in
  let g =
    graph_of (fun b x ->
        let const v = Mir.add_op1 b "hw.constant" [] (u 8) ~attrs:[ ("value", Mir.A_bv v) ] in
        let lo = Mir.add_op1 b "comb.extract" [ x ] (u 8) ~attrs:[ ("lowBit", Mir.A_int 0) ] in
        List.iter
          (fun v -> ignore (Mir.add_op1 b "comb.add" [ lo; const v ] (u 8)))
          [ Bitvec.of_int (Bitvec.signed_ty 8) (-1); Bitvec.of_int (u 8) 255 ];
        ignore (Mir.add_op1 b "hw.constant" [] (u 16) ~attrs:[ ("value", Mir.A_bv (Bitvec.of_int (u 16) 255)) ]))
  in
  let g' = Passes.cse g in
  check_int "-1 and 255 at 8 bits merge; 255 at 16 bits stays" 2 (count_ops g' "hw.constant");
  check_int "the adds over them merge" 1 (count_ops g' "comb.add")

(* the lil graph of every functionality of every bundled ISAX *)
let bundled_lil () =
  let base = List.map (fun (ti : Coredsl.Tast.tinstr) -> ti.ti_name) (Coredsl.compile_rv32i ()).tinstrs in
  let of_unit name (tu : Coredsl.Tast.tunit) =
    List.filter_map
      (fun (ti : Coredsl.Tast.tinstr) ->
        if List.mem ti.ti_name base then None
        else
          Some (name ^ "/" ^ ti.ti_name, Lil.of_hlir tu.elab ~fields:ti.fields (Hlir.lower_instruction tu ti)))
      tu.tinstrs
    @ List.map
        (fun (ta : Coredsl.Tast.talways) ->
          (name ^ "/" ^ ta.ta_name, Lil.of_hlir tu.elab ~fields:[] (Hlir.lower_always tu ta)))
        tu.talways
  in
  List.concat_map (fun (e : Isax.Registry.entry) -> of_unit e.name (Isax.Registry.compile e)) Isax.Registry.all
  @ List.concat_map (fun (e : Isax.Extra.entry) -> of_unit e.name (Isax.Extra.compile e)) Isax.Extra.all

(* The fold/cse fixpoint stops when a round hands back its input itself.
   The printed graph is the oracle: a round returns its input exactly when
   the printed form is unchanged. An optimized graph is a fixpoint of both. *)
let test_fixpoint_is_physical () =
  List.iter
    (fun (name, lil) ->
      let rec round k g =
        let g' = Passes.cse (Passes.fold_constants g) in
        check_bool
          (Printf.sprintf "%s round %d: returned itself iff printed the same" name k)
          (Mir.graph_to_string g = Mir.graph_to_string g')
          (g' == g);
        if g' != g && k < 20 then round (k + 1) g'
      in
      round 1 (Passes.lower_constant_shifts (Passes.fold_constants lil));
      let opt = Passes.optimize lil in
      check_bool (name ^ ": optimized graph folds to itself") true (Passes.fold_constants opt == opt);
      check_bool (name ^ ": optimized graph merges to itself") true (Passes.cse opt == opt))
    (bundled_lil ())

(* ---- one-sweep DCE against the fixpoint loop it replaced ---- *)

(* The former [Passes.dce]: drop top-level ops none of whose results has
   a use (nested region ops count as users), until nothing changes. *)
let fixpoint_dce (g : Mir.graph) =
  let changed = ref true and g = ref g in
  while !changed do
    changed := false;
    let uses = Mir.use_map !g in
    let body =
      List.filter
        (fun op ->
          let live =
            Passes.has_side_effect op || Passes.is_interface_read op
            || List.exists (fun r -> Hashtbl.mem uses r.Mir.vid) op.Mir.results
          in
          if not live then changed := true;
          live)
        !g.body
    in
    g := { !g with body }
  done;
  !g

(* A random SSA graph: interface reads, writes, constants, one- and
   two-result pure ops (half of them extending the latest value, so dead
   chains run long) and pure ops with a region of nested users. *)
let random_dce_graph rng =
  let ty = Bitvec.unsigned_ty 8 in
  let next = ref 0 and values = ref [] in
  let fresh () = incr next; !next in
  let value () = { Mir.vid = fresh (); vty = ty; vhint = "" } in
  let op ?(regions = []) opname operands results =
    { Mir.oid = fresh (); opname; operands; results; attrs = []; regions; oloc = None }
  in
  let pick () =
    match !values with
    | [] -> []
    | latest :: _ as vs ->
        if Random.State.bool rng then [ latest ]
        else [ List.nth vs (Random.State.int rng (List.length vs)) ]
  in
  let defining o = values := List.rev_append o.Mir.results !values; o in
  let body =
    List.init (5 + Random.State.int rng 60) (fun _ ->
        match Random.State.int rng 10 with
        | 0 -> defining (op "lil.read_rs1" [] [ value () ])
        | 1 -> op "lil.write_rd" (pick ()) []
        | 2 -> defining (op "hw.constant" [] [ value () ])
        | 3 ->
            let nested =
              List.init (1 + Random.State.int rng 3) (fun _ ->
                  if Random.State.bool rng then op "comb.xor" (pick () @ pick ()) [ value () ]
                  else op "lil.write_rd" (pick ()) [])
            in
            defining (op ~regions:[ nested ] "test.region" (pick ()) [ value () ])
        | 4 -> defining (op "comb.add" (pick () @ pick ()) [ value (); value () ])
        | _ -> defining (op "comb.add" (pick () @ pick ()) [ value () ]))
  in
  { Mir.gname = "g"; gkind = `Instruction; gattrs = []; body }

let prop_dce_matches_fixpoint =
  QCheck.Test.make ~name:"dce == fixpoint dce on random graphs" ~count:500 QCheck.int (fun seed ->
      let g = random_dce_graph (Random.State.make [| seed |]) in
      (Passes.dce g).body = (fixpoint_dce g).body)

(* a 300-op dead chain goes in one call, and interface reads stay *)
let test_dce_long_chain () =
  let b = Mir.builder () in
  let ty = Bitvec.unsigned_ty 8 in
  let rs1 = Mir.add_op1 b "lil.read_rs1" [] ty in
  let last = ref rs1 in
  for _ = 1 to 300 do
    last := Mir.add_op1 b "comb.add" [ !last; rs1 ] ty
  done;
  let g = Passes.dce (Mir.finish b ~name:"t" ~kind:`Instruction ()) in
  Alcotest.(check (list string)) "only the read" [ "lil.read_rs1" ]
    (List.map (fun o -> o.Mir.opname) g.body)

let test_dot_export () =
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let hg = Hlir.lower_instruction tu addi in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:addi.fields hg) in
  let dot = Dot.of_graph lg in
  let contains needle =
    let nl = String.length needle and hl = String.length dot in
    let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "digraph" true (contains "digraph \"ADDI\"");
  check_bool "interface node" true (contains "lil.read_rs1");
  check_bool "edges with widths" true (contains ":34b");
  (* with a schedule, nodes are clustered by time step *)
  let core = Scaiev.Datasheet.vexriscv in
  let f = Longnail.Flow.compile_functionality core tu (`Instr addi) in
  let dot2 =
    Dot.of_graph
      ~time_of:(fun oid ->
        try Some (Longnail.Sched_build.start_time f.cf_built
                    (List.find (fun (o : Mir.op) -> o.oid = oid) (Mir.all_ops f.cf_lil)))
        with _ -> None)
      f.cf_lil
  in
  let contains2 needle =
    let nl = String.length needle and hl = String.length dot2 in
    let rec go i = i + nl <= hl && (String.sub dot2 i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "clustered by time" true (contains2 "subgraph cluster_t")

(* semantics preservation: optimized vs unoptimized graph agree when
   evaluated on random inputs through the comb interpreter *)
let eval_graph (g : Mir.graph) ~(inputs : (string * Bitvec.t) list) =
  (* evaluate all comb ops; interface reads take values from [inputs] *)
  let values : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 64 in
  let u w = Bitvec.unsigned_ty w in
  let result = ref None in
  List.iter
    (fun (op : Mir.op) ->
      let set v x = Hashtbl.replace values v.Mir.vid x in
      let get v = Hashtbl.find values v.Mir.vid in
      match op.Mir.opname with
      | "lil.instr_word" -> set (List.hd op.results) (List.assoc "instr_word" inputs)
      | "lil.read_rs1" -> set (List.hd op.results) (List.assoc "rs1" inputs)
      | "lil.read_rs2" -> set (List.hd op.results) (List.assoc "rs2" inputs)
      | "lil.read_pc" -> set (List.hd op.results) (List.assoc "pc" inputs)
      | "lil.write_rd" -> result := Some (get (List.hd op.operands))
      | "lil.sink" -> ()
      | name when Comb_eval.is_comb name ->
          let r = List.hd op.results in
          set r
            (Comb_eval.eval ~name ~attrs:op.attrs
               ~ops:(List.map (fun v -> Bitvec.cast (u v.Mir.vty.Bitvec.width) (get v)) op.operands)
               ~result_width:r.Mir.vty.Bitvec.width)
      | other -> Alcotest.failf "eval_graph: unsupported op %s" other)
    g.Mir.body;
  !result

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves dotprod semantics" ~count:100
    (QCheck.pair (QCheck.int_bound 0xFFFFFF) (QCheck.int_bound 0xFFFFFF)) (fun (a, b) ->
      let tu = Isax.Registry.compile_by_name "dotprod" in
      let ti = Option.get (Coredsl.Tast.find_tinstr tu "DOTP") in
      let hg = Hlir.lower_instruction tu ti in
      let raw = Lil.of_hlir tu.elab ~fields:ti.fields hg in
      let opt = Passes.optimize raw in
      let u32 = Bitvec.unsigned_ty 32 in
      let inputs =
        [
          ("instr_word", Bitvec.of_int u32 0x0020_80EB);
          ("rs1", Bitvec.of_int u32 a);
          ("rs2", Bitvec.of_int u32 b);
        ]
      in
      match (eval_graph raw ~inputs, eval_graph opt ~inputs) with
      | Some x, Some y -> Bitvec.equal_value x y
      | _ -> false)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_optimize_preserves_semantics; prop_dce_matches_fixpoint ]

let () =
  Alcotest.run "ir"
    [
      ( "hlir",
        [
          Alcotest.test_case "ADDI shape (fig 5b)" `Quick test_addi_shape;
          Alcotest.test_case "loop unrolling" `Quick test_loop_unrolling;
          Alcotest.test_case "constant loop folds" `Quick test_loop_fully_constant_folds;
          Alcotest.test_case "inlining without muxes" `Quick test_function_inlining_no_muxes;
          Alcotest.test_case "if conversion" `Quick test_if_conversion;
          Alcotest.test_case "spawn attribute" `Quick test_spawn_attr_propagation;
          Alcotest.test_case "write merging" `Quick test_write_merging;
          Alcotest.test_case "read after write" `Quick test_read_after_write;
        ] );
      ( "lil",
        [
          Alcotest.test_case "interface mapping" `Quick test_lil_interface_mapping;
          Alcotest.test_case "arbitrary X index rejected" `Quick test_lil_rejects_arbitrary_x_index;
          Alcotest.test_case "single-use enforcement" `Quick test_lil_single_use_enforcement;
          Alcotest.test_case "sign-extension legalization" `Quick test_legalization_sign_extension;
        ] );
      ( "passes",
        [
          Alcotest.test_case "cse dedups reads" `Quick test_cse_dedups_reads;
          Alcotest.test_case "dce removes dead logic" `Quick test_dce_removes_dead_logic;
          Alcotest.test_case "dce removes a long dead chain" `Quick test_dce_long_chain;
          Alcotest.test_case "constant folding" `Quick test_constant_fold;
          Alcotest.test_case "constant shift lowering" `Quick test_constant_shift_lowering;
          Alcotest.test_case "dynamic shift stays" `Quick test_dynamic_shift_stays;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "cse keeps types and attribute kinds apart" `Quick test_cse_keeps_apart;
          Alcotest.test_case "cse merges equal constants" `Quick test_cse_merges_constants;
          Alcotest.test_case "fold/cse fixpoint is physical" `Quick test_fixpoint_is_physical;
        ] );
      ("properties", qcheck_cases);
    ]
