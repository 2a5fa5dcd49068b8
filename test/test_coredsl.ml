(* Tests for the CoreDSL front-end: lexer, parser, elaboration, type
   checking, and the reference interpreter, exercised both on small
   fragments and on the full benchmark ISAXes of Table 3. *)

open Coredsl

let u w = Bitvec.unsigned_ty w
let bv w v = Bitvec.of_int (u w) v
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- lexer ---- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "X[rs1] += 7'd13; // comment\n0xcafe" in
  check_int "token count" 9 (List.length toks) (* incl. EOF *)

let test_lexer_sized_literals () =
  match Lexer.tokenize "7'd13 3'b101 16'hcafe" with
  | [ { tok = INT a; _ }; { tok = INT b; _ }; { tok = INT c; _ }; { tok = EOF; _ } ] ->
      let w = function Some t -> t.Bitvec.width | None -> -1 in
      check_int "7'd13 width" 7 (w a.forced);
      check_int "3'b101 width" 3 (w b.forced);
      check_int "16'hcafe width" 16 (w c.forced);
      check_int "values" 13 (Bitvec.Bn.to_int_exn a.value);
      check_int "3'b101 value" 5 (Bitvec.Bn.to_int_exn b.value);
      check_int "hcafe value" 0xcafe (Bitvec.Bn.to_int_exn c.value)
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_comments_and_errors () =
  check_int "block comment" 2 (List.length (Lexer.tokenize "/* x */ foo"));
  Alcotest.check_raises "unterminated comment"
    (Ast.Syntax_error ({ file = "<input>"; line = 1; col = 8 }, "unterminated comment"))
    (fun () -> ignore (Lexer.tokenize "/* oops"))

(* ---- parser ---- *)

let test_parse_figure1 () =
  let d = Parser.parse Isax.Sources.dotprod in
  check_int "imports" 1 (List.length d.imports);
  check_int "sets" 1 (List.length d.sets);
  let s = List.hd d.sets in
  check_str "name" "X_DOTP" s.set_name;
  check_str "extends" "RV32I" (Option.get s.extends);
  check_int "instructions" 1 (List.length s.set_isa.instructions)

let test_parse_encoding_elements () =
  let d = Parser.parse Isax.Sources.dotprod in
  let i = List.hd (List.hd d.sets).set_isa.instructions in
  check_int "encoding elements" 6 (List.length i.encoding);
  match i.encoding with
  | Ast.Enc_lit l :: Ast.Enc_field { field = "rs2"; hi = 4; lo = 0 } :: _ ->
      check_int "funct7 width" 7 (Bitvec.width l)
  | _ -> Alcotest.fail "unexpected encoding structure"

let test_parse_always_and_state () =
  let d = Parser.parse Isax.Sources.zol in
  let s = List.hd d.sets in
  check_int "always blocks" 1 (List.length s.set_isa.always);
  check_int "state decls" 3 (List.length s.set_isa.state);
  check_str "always name" "zol" (List.hd s.set_isa.always).aname

let test_parse_precedence () =
  (* a + b * c parses as a + (b*c); concat looser than shift *)
  let e = Parser.parse_expr_string "a + b * c" in
  (match e.e with
  | Ast.Binop (Ast.Add, _, { e = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "precedence broken for + *");
  let e2 = Parser.parse_expr_string "a << 2 :: b" in
  match e2.e with
  | Ast.Concat ({ e = Ast.Binop (Ast.Shl, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "precedence broken for :: <<"

let test_parse_ternary_cast () =
  let e = Parser.parse_expr_string "(unsigned<5>)(a ? b : c)" in
  match e.e with
  | Ast.Cast ({ cast_signed = false; cast_width = Some _ }, { e = Ast.Ternary _; _ }) -> ()
  | _ -> Alcotest.fail "cast/ternary parse"

let test_parse_error_location () =
  try
    ignore (Parser.parse "InstructionSet Foo { instructions { Bad { encoding: 1; } } }");
    Alcotest.fail "expected syntax error"
  with Ast.Syntax_error (_, msg) ->
    check_bool "mentions sized" true
      (String.length msg > 0)

(* ---- elaboration ---- *)

let test_elaborate_rv32i () =
  let tu = compile_rv32i () in
  let elab = tu.Tast.elab in
  check_int "params" 1 (List.length elab.params);
  check_str "XLEN" "32" (Bitvec.to_string (List.assoc "XLEN" elab.params));
  let x = Option.get (Elaborate.find_reg elab "X") in
  check_int "X elems" 32 x.elems;
  check_int "X width" 32 x.rty.Bitvec.width;
  let pc = Option.get (Elaborate.pc_reg elab) in
  check_str "pc name" "PC" pc.rname;
  let mem = Option.get (Elaborate.main_mem elab) in
  check_str "mem name" "MEM" mem.sname;
  check_int "mem elem width" 8 mem.elem_ty.Bitvec.width

let test_elaborate_inheritance () =
  (* zol extends RV32I: flattened unit contains both X and COUNT *)
  let tu = Isax.Registry.compile_by_name "zol" in
  let elab = tu.Tast.elab in
  check_bool "X present" true (Elaborate.find_reg elab "X" <> None);
  check_bool "COUNT present" true (Elaborate.find_reg elab "COUNT" <> None);
  check_bool "base ADDI present" true (Tast.find_tinstr tu "ADDI" <> None);
  check_bool "setup_zol present" true (Tast.find_tinstr tu "setup_zol" <> None)

let test_elaborate_core_combination () =
  let tu = Isax.Registry.compile_by_name "autoinc+zol" in
  let elab = tu.Tast.elab in
  check_bool "ADDR present" true (Elaborate.find_reg elab "ADDR" <> None);
  check_bool "COUNT present" true (Elaborate.find_reg elab "COUNT" <> None);
  (* RV32I included exactly once via two paths *)
  check_int "one X register" 1
    (List.length (List.filter (fun (r : Elaborate.reg) -> r.rname = "X") elab.regs));
  check_int "44 instructions" 44 (List.length tu.Tast.tinstrs)

let test_elaborate_missing_import () =
  try
    ignore (compile ~target:"T" "import \"nope.core_desc\"\nInstructionSet T {}");
    Alcotest.fail "expected error"
  with Error m -> check_bool "mentions import" true (String.length m > 0)

let test_elaborate_rom () =
  let tu = Isax.Registry.compile_by_name "sbox" in
  let rom = Option.get (Elaborate.find_reg tu.Tast.elab "SBOX") in
  check_bool "const" true rom.rconst;
  check_int "elems" 256 rom.elems;
  let init = Option.get rom.rinit in
  check_int "SBOX[0]" 0x63 (Bitvec.to_int init.(0));
  check_int "SBOX[255]" 0x16 (Bitvec.to_int init.(255))

(* ---- type checking ---- *)

let compile_behavior body =
  let src =
    Printf.sprintf
      {|
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  instructions {
    TEST {
      encoding: 12'd0 :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b1111011;
      behavior: { %s }
    }
  }
}
|}
      body
  in
  compile ~target:"T" src

let expect_type_error body =
  try
    ignore (compile_behavior body);
    Alcotest.failf "expected type error for: %s" body
  with Error m -> check_bool "is type error" true (String.length m > 0)

let test_no_implicit_narrowing () =
  (* the paper's canonical examples: u4 = u5 and u4 = s4 are forbidden *)
  expect_type_error "unsigned<5> u5 = 0; unsigned<4> u4 = u5;";
  expect_type_error "signed<4> s4 = 0; unsigned<4> u4 = s4;";
  (* and the fix with an explicit cast works *)
  ignore (compile_behavior "unsigned<5> u5 = 0; unsigned<4> u4 = (unsigned<4>)u5;");
  ignore (compile_behavior "signed<4> s4 = 0; unsigned<4> u4 = (unsigned<4>)s4;")

let test_widening_ok () =
  ignore (compile_behavior "unsigned<4> u4 = 0; unsigned<5> u5 = u4; signed<5> s5 = u4;");
  expect_type_error "unsigned<4> u4 = 0; signed<4> s4 = u4;"

let test_operator_result_types () =
  (* u5 + s4 : signed<7> — assigning to signed<7> is exact *)
  ignore (compile_behavior "unsigned<5> u5 = 0; signed<4> s4 = 0; signed<7> r = u5 + s4;");
  expect_type_error "unsigned<5> u5 = 0; signed<4> s4 = 0; signed<6> r = u5 + s4;"

let test_spawn_restrictions () =
  (* spawn inside always is rejected *)
  let src =
    {|
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  always { blk { spawn { PC = PC; } } }
}
|}
  in
  (try
     ignore (compile ~target:"T" src);
     Alcotest.fail "expected error"
   with Error m -> check_bool "spawn in always rejected" true (String.length m > 0));
  ignore (compile_behavior "spawn { X[rd] = (unsigned<32>)1; }")

let test_encoding_fields () =
  let tu = compile_rv32i () in
  let jal = Option.get (Tast.find_tinstr tu "JAL") in
  let imm = Option.get (Tast.find_field jal "imm") in
  check_int "JAL imm width" 21 imm.fld_width;
  check_int "JAL imm segments" 4 (List.length imm.segments);
  let beq = Option.get (Tast.find_tinstr tu "BEQ") in
  let imm = Option.get (Tast.find_field beq "imm") in
  check_int "BEQ imm width" 13 imm.fld_width

let test_unknown_ident () = expect_type_error "X[rd] = NOT_A_THING;"

let test_errors_accumulate_across_instructions () =
  (* three independently broken instructions: one run of the front end
     reports all three, each with a stable code and a span into its own
     behavior block, instead of stopping at the first *)
  let src =
    {|import "RV32I.core_desc"
InstructionSet T extends RV32I {
  instructions {
    E1 { encoding: 12'd0 :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b1111011;
         behavior: { X[rd] = NOT_A_THING; } }
    E2 { encoding: 12'd0 :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b1111011;
         behavior: { unsigned<5> u5 = 0; unsigned<4> u4 = u5; } }
    E3 { encoding: 12'd0 :: rs1[4:0] :: 3'b011 :: rd[4:0] :: 7'b1111011;
         behavior: { signed<4> s4 = 0; unsigned<4> u4 = s4; } }
  }
}
|}
  in
  match compile_result ~file:"accumulate.core_desc" ~target:"T" src with
  | Ok _ -> Alcotest.fail "expected three type errors"
  | Stdlib.Error ds ->
      check_int "all three reported in one run" 3 (List.length ds);
      List.iter
        (fun (d : Diag.t) ->
          check_bool (d.Diag.code ^ " registered") true (Diag.is_registered d.Diag.code);
          match d.Diag.span with
          | Some sp -> check_bool "valid span" true (Diag.span_is_valid sp)
          | None -> Alcotest.fail "accumulated diagnostic without span")
        ds;
      (* diagnostics come out in declaration order of the instructions *)
      let lines = List.map (fun (d : Diag.t) -> (Option.get d.Diag.span).Diag.sp_line) ds in
      check_bool "source order" true (List.sort compare lines = lines)

let test_rom_write_rejected () =
  let src =
    {|
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  architectural_state { const unsigned<8> R[2] = {1, 2}; }
  instructions {
    W { encoding: 12'd0 :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b1111011;
        behavior: { R[0] = (unsigned<8>)1; } }
  }
}
|}
  in
  try
    ignore (compile ~target:"T" src);
    Alcotest.fail "expected error"
  with Error m -> check_bool "rom write rejected" true (String.length m > 0)

(* ---- interpreter: base ISA ---- *)

let exec_fields st tu name fields =
  let ti = Option.get (Tast.find_tinstr tu name) in
  let w = Interp.encode ti (List.map (fun (n, v) -> (n, bv 32 v)) fields) in
  Interp.exec_instr st ti ~instr_word:w

let test_interp_addi_add () =
  let tu = compile_rv32i () in
  let st = Interp.create tu in
  exec_fields st tu "ADDI" [ ("imm", 42); ("rs1", 0); ("rd", 1) ];
  exec_fields st tu "ADDI" [ ("imm", 0xFFF); ("rs1", 1); ("rd", 2) ];
  (* imm = -1 sign-extended *)
  check_int "x1" 42 (Bitvec.to_int (Interp.read_regfile st "X" 1));
  check_int "x2" 41 (Bitvec.to_int (Interp.read_regfile st "X" 2));
  exec_fields st tu "ADD" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "x3" 83 (Bitvec.to_int (Interp.read_regfile st "X" 3));
  (* x0 is hardwired zero via the rd != 0 guard *)
  exec_fields st tu "ADDI" [ ("imm", 7); ("rs1", 0); ("rd", 0) ];
  check_int "x0" 0 (Bitvec.to_int (Interp.read_regfile st "X" 0))

let test_interp_load_store () =
  let tu = compile_rv32i () in
  let st = Interp.create tu in
  exec_fields st tu "ADDI" [ ("imm", 0x100); ("rs1", 0); ("rd", 1) ];
  exec_fields st tu "ADDI" [ ("imm", 0x7BC); ("rs1", 0); ("rd", 2) ];
  exec_fields st tu "SW" [ ("imm", 4); ("rs1", 1); ("rs2", 2) ];
  exec_fields st tu "LW" [ ("imm", 4); ("rs1", 1); ("rd", 3) ];
  check_int "load back" 0x7BC (Bitvec.to_int (Interp.read_regfile st "X" 3));
  (* byte access: little endian *)
  exec_fields st tu "LBU" [ ("imm", 4); ("rs1", 1); ("rd", 4) ];
  check_int "low byte" 0xBC (Bitvec.to_int (Interp.read_regfile st "X" 4));
  exec_fields st tu "LB" [ ("imm", 4); ("rs1", 1); ("rd", 5) ];
  (* 0xBC sign-extends to 0xFFFFFFBC *)
  check_bool "lb sign extends" true
    (Bitvec.equal_value (Interp.read_regfile st "X" 5) (bv 32 0xFFFFFFBC))

let test_interp_branch () =
  let tu = compile_rv32i () in
  let st = Interp.create tu in
  Interp.write_reg st "PC" (bv 32 0x1000);
  exec_fields st tu "ADDI" [ ("imm", 5); ("rs1", 0); ("rd", 1) ];
  exec_fields st tu "ADDI" [ ("imm", 5); ("rs1", 0); ("rd", 2) ];
  check_bool "addi leaves the PC" false st.Interp.pc_written;
  exec_fields st tu "BEQ" [ ("imm", 16); ("rs1", 1); ("rs2", 2) ];
  check_bool "branch taken" true (Bitvec.equal_value (Interp.read_reg st "PC") (bv 32 0x1010));
  check_bool "taken branch writes the PC" true st.Interp.pc_written;
  exec_fields st tu "BNE" [ ("imm", 16); ("rs1", 1); ("rs2", 2) ];
  check_bool "bne not taken" true (Bitvec.equal_value (Interp.read_reg st "PC") (bv 32 0x1010));
  check_bool "untaken branch leaves the PC" false st.Interp.pc_written;
  (* a taken branch to its own address writes the PC without changing it *)
  exec_fields st tu "BEQ" [ ("imm", 0); ("rs1", 1); ("rs2", 2) ];
  check_bool "self branch stays" true (Bitvec.equal_value (Interp.read_reg st "PC") (bv 32 0x1010));
  check_bool "self branch writes the PC" true st.Interp.pc_written

let test_interp_slt_shift () =
  let tu = compile_rv32i () in
  let st = Interp.create tu in
  exec_fields st tu "ADDI" [ ("imm", 0xFFF); ("rs1", 0); ("rd", 1) ] (* x1 = -1 *);
  exec_fields st tu "ADDI" [ ("imm", 1); ("rs1", 0); ("rd", 2) ];
  exec_fields st tu "SLT" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "-1 < 1 signed" 1 (Bitvec.to_int (Interp.read_regfile st "X" 3));
  exec_fields st tu "SLTU" [ ("rs1", 1); ("rs2", 2); ("rd", 4) ];
  check_int "0xffffffff < 1 unsigned" 0 (Bitvec.to_int (Interp.read_regfile st "X" 4));
  exec_fields st tu "SRAI" [ ("shamt", 4); ("rs1", 1); ("rd", 5) ];
  check_bool "sra keeps sign" true (Bitvec.equal_value (Interp.read_regfile st "X" 5) (bv 32 0xFFFFFFFF));
  exec_fields st tu "SRLI" [ ("shamt", 4); ("rs1", 1); ("rd", 6) ];
  check_bool "srl shifts in zeros" true
    (Bitvec.equal_value (Interp.read_regfile st "X" 6) (bv 32 0x0FFFFFFF))

let test_interp_lui_jal () =
  let tu = compile_rv32i () in
  let st = Interp.create tu in
  let lui = Option.get (Tast.find_tinstr tu "LUI") in
  let w = Interp.encode lui [ ("imm", bv 32 0xDEAD5000); ("rd", bv 32 1) ] in
  Interp.exec_instr st lui ~instr_word:w;
  check_bool "lui" true (Bitvec.equal_value (Interp.read_regfile st "X" 1) (bv 32 0xDEAD5000));
  Interp.write_reg st "PC" (bv 32 0x2000);
  let jal = Option.get (Tast.find_tinstr tu "JAL") in
  let w = Interp.encode jal [ ("imm", bv 32 0x100); ("rd", bv 32 5) ] in
  Interp.exec_instr st jal ~instr_word:w;
  check_bool "ra" true (Bitvec.equal_value (Interp.read_regfile st "X" 5) (bv 32 0x2004));
  check_bool "target" true (Bitvec.equal_value (Interp.read_reg st "PC") (bv 32 0x2100))

(* ---- interpreter: benchmark ISAXes ---- *)

let test_interp_dotprod () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let st = Interp.create tu in
  (* x1 = bytes [1, 2, 3, 4] (LSB first), x2 = bytes [10, 20, 30, 40] *)
  Interp.write_regfile st "X" 1 (bv 32 0x04030201);
  Interp.write_regfile st "X" 2 (bv 32 0x281E140A);
  exec_fields st tu "DOTP" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  (* 1*10 + 2*20 + 3*30 + 4*40 = 10+40+90+160 = 300 *)
  check_int "dot product" 300 (Bitvec.to_int (Interp.read_regfile st "X" 3));
  (* signed bytes: x1 = [-1, 0, 0, 0] -> -1 * 10 = -10 (mod 2^32) *)
  Interp.write_regfile st "X" 1 (bv 32 0x000000FF);
  exec_fields st tu "DOTP" [ ("rs1", 1); ("rs2", 2); ("rd", 4) ];
  check_bool "signed dot" true
    (Bitvec.equal_value (Interp.read_regfile st "X" 4) (bv 32 0xFFFFFFF6))

let test_interp_sbox () =
  let tu = Isax.Registry.compile_by_name "sbox" in
  let st = Interp.create tu in
  Interp.write_regfile st "X" 1 (bv 32 0x00010253);
  exec_fields st tu "SUBBYTES" [ ("rs1", 1); ("rd", 2) ];
  (* sbox(0)=0x63 sbox(1)=0x7c sbox(2)=0x77 sbox(0x53)=0xed *)
  check_bool "subbytes" true (Bitvec.equal_value (Interp.read_regfile st "X" 2) (bv 32 0x637C77ED))

let test_interp_autoinc () =
  let tu = Isax.Registry.compile_by_name "autoinc" in
  let st = Interp.create tu in
  Interp.write_regfile st "X" 1 (bv 32 0x200);
  Interp.write_regfile st "X" 2 (bv 32 111);
  Interp.write_regfile st "X" 3 (bv 32 222);
  exec_fields st tu "AI_SETUP" [ ("imm", 0); ("rs1", 1) ];
  exec_fields st tu "AI_SW" [ ("rs2", 2) ];
  exec_fields st tu "AI_SW" [ ("rs2", 3) ];
  check_int "ADDR advanced" 0x208 (Bitvec.to_int (Interp.read_reg st "ADDR"));
  exec_fields st tu "AI_SETUP" [ ("imm", 0); ("rs1", 1) ];
  exec_fields st tu "AI_LW" [ ("rd", 4) ];
  exec_fields st tu "AI_LW" [ ("rd", 5) ];
  check_int "first" 111 (Bitvec.to_int (Interp.read_regfile st "X" 4));
  check_int "second" 222 (Bitvec.to_int (Interp.read_regfile st "X" 5))

let test_interp_ijmp () =
  let tu = Isax.Registry.compile_by_name "ijmp" in
  let st = Interp.create tu in
  (* store jump table entry 0xCAFE0000 at 0x300 *)
  Interp.write_regfile st "X" 1 (bv 32 0x300);
  Interp.write_mem st "MEM" 0x300 4 (bv 32 0xCAFE0000);
  exec_fields st tu "IJMP" [ ("imm", 0); ("rs1", 1) ];
  check_bool "pc from mem" true (Bitvec.equal_value (Interp.read_reg st "PC") (bv 32 0xCAFE0000))

let test_interp_sqrt () =
  List.iter
    (fun (isax, iname) ->
      let tu = Isax.Registry.compile_by_name isax in
      let st = Interp.create tu in
      List.iter
        (fun x ->
          Interp.write_regfile st "X" 1 (bv 32 x);
          exec_fields st tu iname [ ("rs1", 1); ("rd", 2) ];
          let got = Bitvec.to_int (Interp.read_regfile st "X" 2) in
          let expect = int_of_float (sqrt (float_of_int x *. 4294967296.0)) in
          check_bool
            (Printf.sprintf "%s sqrt(%d): %d ~ %d" isax x got expect)
            true
            (abs (got - expect) <= 1))
        [ 0; 1; 2; 4; 100; 65536; 12345; 0x7FFFFFFF ])
    [ ("sqrt_tightly", "SQRT"); ("sqrt_decoupled", "SQRT_D") ]

let test_interp_sparkle () =
  let tu = Isax.Registry.compile_by_name "sparkle" in
  let st = Interp.create tu in
  (* reference Alzette implementation in OCaml *)
  let mask = 0xFFFFFFFF in
  let ror x n = ((x lsr n) lor (x lsl (32 - n))) land mask in
  let alzette x y c =
    let x = (x + ror y 31) land mask in
    let y = y lxor ror x 24 in
    let x = x lxor c in
    let x = (x + ror y 17) land mask in
    let y = y lxor ror x 17 in
    let x = x lxor c in
    let x = (x + y) land mask in
    let y = y lxor ror x 31 in
    let x = x lxor c in
    let x = (x + ror y 24) land mask in
    let y = y lxor ror x 16 in
    let x = x lxor c in
    (x, y)
  in
  let c = 0xb7e15162 in
  List.iter
    (fun (x0, y0) ->
      let ex, ey = alzette x0 y0 c in
      Interp.write_regfile st "X" 1 (bv 32 x0);
      Interp.write_regfile st "X" 2 (bv 32 y0);
      exec_fields st tu "ALZ_X" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
      exec_fields st tu "ALZ_Y" [ ("rs1", 1); ("rs2", 2); ("rd", 4) ];
      check_bool "alzette x" true (Bitvec.equal_value (Interp.read_regfile st "X" 3) (bv 32 ex));
      check_bool "alzette y" true (Bitvec.equal_value (Interp.read_regfile st "X" 4) (bv 32 ey)))
    [ (0, 0); (1, 2); (0xDEADBEEF, 0x12345678); (mask, mask) ]

let test_interp_zol () =
  let tu = Isax.Registry.compile_by_name "zol" in
  let st = Interp.create tu in
  Interp.write_reg st "PC" (bv 32 0x100);
  (* setup: loop body starts at 0x104, ends at PC + (5 << 1) = 0x10A, 3 iters *)
  exec_fields st tu "setup_zol" [ ("uimmL", 3); ("uimmS", 5) ];
  check_int "START_PC" 0x104 (Bitvec.to_int (Interp.read_reg st "START_PC"));
  check_int "END_PC" 0x10A (Bitvec.to_int (Interp.read_reg st "END_PC"));
  check_int "COUNT" 3 (Bitvec.to_int (Interp.read_reg st "COUNT"));
  let zol = List.hd tu.Tast.talways in
  (* tick at non-end PC: nothing happens *)
  Interp.write_reg st "PC" (bv 32 0x104);
  Interp.exec_always st zol;
  check_int "count unchanged" 3 (Bitvec.to_int (Interp.read_reg st "COUNT"));
  (* tick at end PC: jump back, decrement *)
  Interp.write_reg st "PC" (bv 32 0x10A);
  Interp.exec_always st zol;
  check_int "pc reset" 0x104 (Bitvec.to_int (Interp.read_reg st "PC"));
  check_int "count decremented" 2 (Bitvec.to_int (Interp.read_reg st "COUNT"));
  (* exhaust the counter *)
  Interp.write_reg st "PC" (bv 32 0x10A);
  Interp.exec_always st zol;
  Interp.write_reg st "PC" (bv 32 0x10A);
  Interp.exec_always st zol;
  check_int "count zero" 0 (Bitvec.to_int (Interp.read_reg st "COUNT"));
  Interp.write_reg st "PC" (bv 32 0x10A);
  Interp.exec_always st zol;
  check_int "no jump when exhausted" 0x10A (Bitvec.to_int (Interp.read_reg st "PC"))

let test_spawn_detection () =
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let sq = Option.get (Tast.find_tinstr tu "SQRT_D") in
  check_bool "decoupled has spawn" true (Tast.contains_spawn sq.ti_behavior);
  let tu2 = Isax.Registry.compile_by_name "sqrt_tightly" in
  let sq2 = Option.get (Tast.find_tinstr tu2 "SQRT") in
  check_bool "tightly has no spawn" false (Tast.contains_spawn sq2.ti_behavior)

(* ---- edge cases ---- *)

let test_parameter_override_in_core () =
  (* a Core re-assigns an inherited parameter; state sizes follow *)
  let src =
    {|
InstructionSet BASE {
  architectural_state {
    unsigned int W = 8;
    register unsigned<W> R;
  }
}
Core WIDE provides BASE {
  architectural_state {
    unsigned int W = 16;
  }
}
|}
  in
  let tu = compile ~target:"WIDE" src in
  let r = Option.get (Elaborate.find_reg tu.Tast.elab "R") in
  check_int "overridden width" 16 r.rty.Bitvec.width

let test_parse_error_messages () =
  let expect_syntax src =
    try
      ignore (compile ~target:"T" src);
      Alcotest.fail "expected syntax error"
    with Error m -> check_bool "has location" true (String.contains m ':')
  in
  expect_syntax "InstructionSet T { architectural_state { register unsigned<8 R; } }";
  expect_syntax "InstructionSet T { instructions { A { encoding: 32'd0 behavior: {} } } }";
  expect_syntax "InstructionSet T { bogus_section { } }"

let test_huge_width_values () =
  (* the front-end handles very wide registers *)
  let tu =
    compile_behavior
      "unsigned<256> wide = 0; wide = (unsigned<256>)(wide + X[rs1]); \
       if (rd != 0) X[rd] = (unsigned<32>)wide[31:0];"
  in
  let st = Interp.create tu in
  Interp.write_regfile st "X" 1 (bv 32 0xABCD);
  exec_fields st tu "TEST" [ ("rs1", 1); ("rd", 2) ];
  check_int "wide roundtrip" 0xABCD (Bitvec.to_int (Interp.read_regfile st "X" 2))

let test_instruction_override () =
  (* a later definition of the same instruction replaces the earlier one *)
  let src =
    {|
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  instructions {
    ADDI {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0010011;
      behavior: { if (rd != 0) X[rd] = (unsigned<32>)(X[rs1] + (signed<12>)imm + 1); }
    }
  }
}
|}
  in
  let tu = compile ~target:"T" src in
  check_int "still 40 instructions" 40 (List.length tu.Tast.tinstrs);
  let st = Interp.create tu in
  exec_fields st tu "ADDI" [ ("imm", 41); ("rs1", 0); ("rd", 1) ];
  check_int "overridden semantics" 42 (Bitvec.to_int (Interp.read_regfile st "X" 1))

(* ---- extended control flow: while / do-while / switch ---- *)

let test_while_loop () =
  (* popcount via a while loop with a compile-time-known trip count *)
  let tu =
    compile_behavior
      "unsigned<32> v = X[rs1]; unsigned<6> n = 0; int i = 0;\n\
       while (i < 32) { n = (unsigned<6>)(n + v[0]); v = (unsigned<32>)(v >> 1); i += 1; }\n\
       if (rd != 0) X[rd] = (unsigned<32>)n;"
  in
  let st = Interp.create tu in
  Interp.write_regfile st "X" 1 (bv 32 0xF00F0001);
  exec_fields st tu "TEST" [ ("rs1", 1); ("rd", 2) ];
  check_int "popcount" 9 (Bitvec.to_int (Interp.read_regfile st "X" 2))

let test_do_while () =
  let tu =
    compile_behavior
      "unsigned<32> acc = 1; int i = 0;\n\
       do { acc = (unsigned<32>)(acc + acc); i += 1; } while (i < 5);\n\
       if (rd != 0) X[rd] = acc;"
  in
  let st = Interp.create tu in
  exec_fields st tu "TEST" [ ("rs1", 0); ("rd", 2) ];
  check_int "2^5" 32 (Bitvec.to_int (Interp.read_regfile st "X" 2))

let test_switch () =
  let tu =
    compile_behavior
      "unsigned<32> r = 0;\n\
       switch (X[rs1][1:0]) {\n\
         case 0: r = 100; break;\n\
         case 1: r = 200; break;\n\
         case 2: r = 300; break;\n\
         default: r = 999;\n\
       }\n\
       if (rd != 0) X[rd] = r;"
  in
  let st = Interp.create tu in
  List.iter
    (fun (input, expect) ->
      Interp.write_regfile st "X" 1 (bv 32 input);
      exec_fields st tu "TEST" [ ("rs1", 1); ("rd", 2) ];
      check_int (Printf.sprintf "case %d" input) expect
        (Bitvec.to_int (Interp.read_regfile st "X" 2)))
    [ (0, 100); (1, 200); (2, 300); (3, 999) ]

let test_switch_requires_single_default () =
  expect_type_error
    "switch (X[rs1]) { default: X[rd] = (unsigned<32>)1; default: X[rd] = (unsigned<32>)2; }"

let test_while_through_hls () =
  (* the while-based popcount survives the whole flow and matches in RTL *)
  let tu =
    compile_behavior
      "unsigned<32> v = X[rs1]; unsigned<6> n = 0; int i = 0;\n\
       while (i < 32) { n = (unsigned<6>)(n + v[0]); v = (unsigned<32>)(v >> 1); i += 1; }\n\
       if (rd != 0) X[rd] = (unsigned<32>)n;"
  in
  let core = Scaiev.Datasheet.vexriscv in
  let ti = Option.get (Tast.find_tinstr tu "TEST") in
  let f = Longnail.Flow.compile_functionality core tu (`Instr ti) in
  let word = Interp.encode ti [ ("rs1", bv 32 1); ("rd", bv 32 2) ] in
  let input = bv 32 0xDEADBEEF in
  let st = Interp.create tu in
  Interp.write_regfile st "X" 1 input;
  Interp.exec_instr st ti ~instr_word:word;
  let resp =
    Longnail.Cosim.run f
      { Longnail.Cosim.default_stimulus with instr_word = Some word; rs1 = Some input }
  in
  match resp.rd_write with
  | Some (data, true) ->
      check_bool "popcount in RTL" true
        (Bitvec.equal_value data (Interp.read_regfile st "X" 2))
  | _ -> Alcotest.fail "no rd write"

(* ---- encode/decode properties ---- *)

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip on RV32I" ~count:200
    (QCheck.triple (QCheck.int_range 0 39) (QCheck.int_range 0 31) (QCheck.int_range 0 4095))
    (fun (inum, r, imm) ->
      let tu = compile_rv32i () in
      let ti = List.nth tu.Tast.tinstrs inum in
      let fields =
        List.map
          (fun (f : Tast.field_info) ->
            let v = match f.fld_name with "imm" -> imm | "shamt" -> r land 31 | _ -> r in
            (f.fld_name, bv 32 v))
          ti.fields
      in
      let w = Interp.encode ti fields in
      match Interp.decode (Interp.create tu) w with
      | Some ti' -> ti'.Tast.ti_name = ti.Tast.ti_name
      | None -> false)

let prop_decode_unique =
  QCheck.Test.make ~name:"at most one instruction matches a word" ~count:300 QCheck.int
    (fun seed ->
      let tu = compile_rv32i () in
      let w = bv 32 (abs seed land 0xFFFFFFFF) in
      let matches = List.filter (fun ti -> Interp.matches ti w) tu.Tast.tinstrs in
      List.length matches <= 1)

(* The decode table against its oracle, the first-match linear scan over
   [tinstrs], on RV32I and every bundled ISAX unit. *)
let linear_decode (tu : Tast.tunit) w = List.find_opt (fun ti -> Interp.matches ti w) tu.tinstrs

let decode_agrees st tu w =
  match (Interp.decode st w, linear_decode tu w) with
  | None, None -> true
  | Some a, Some b -> a == b
  | _ -> false

let decode_units =
  lazy
    (List.map
       (fun tu -> (tu, Interp.create tu))
       (compile_rv32i () :: List.map Isax.Registry.compile Isax.Registry.all))

let prop_decode_table_matches_scan =
  QCheck.Test.make ~name:"decode table == first-match linear scan" ~count:200
    (QCheck.pair QCheck.int QCheck.int)
    (fun (word, dont_care) ->
      List.for_all
        (fun (tu, st) ->
          decode_agrees st tu (bv 32 (word land 0xFFFFFFFF))
          && List.for_all
               (fun (ti : Tast.tinstr) ->
                 (* the instruction's fixed bits, random bits elsewhere *)
                 let w = ti.enc_width in
                 let free = lnot (Bitvec.to_int ti.mask) land ((1 lsl w) - 1) in
                 decode_agrees st tu
                   (bv w (Bitvec.to_int ti.match_bits lor (dont_care land free))))
               tu.tinstrs)
        (Lazy.force decode_units))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_encode_decode_roundtrip; prop_decode_unique; prop_decode_table_matches_scan ]

(* Overlapping encodings: nothing rejects them, and decode must keep the
   linear scan's priority. SPEC_A (imm = 0) precedes GEN_A, so it wins
   where both match; GEN_B precedes SPEC_B, which therefore never wins;
   DUP_1 and DUP_2 are identical and the first one wins. *)
let test_decode_overlap_priority () =
  let tu =
    compile ~target:"O"
      {|
import "RV32I.core_desc"
InstructionSet O extends RV32I {
  instructions {
    SPEC_A { encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0001011; behavior: { } }
    GEN_A { encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0001011; behavior: { } }
    GEN_B { encoding: imm[11:0] :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0001011; behavior: { } }
    SPEC_B { encoding: 12'd0 :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0001011; behavior: { } }
    DUP_1 { encoding: imm[11:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0001011; behavior: { } }
    DUP_2 { encoding: imm[11:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0001011; behavior: { } }
  }
}
|}
  in
  let st = Interp.create tu in
  let word ~imm ~funct3 = bv 32 ((imm lsl 20) lor (3 lsl 15) lor (funct3 lsl 12) lor (5 lsl 7) lor 0b0001011) in
  List.iter
    (fun (w, expect) ->
      let w = word ~imm:(fst w) ~funct3:(snd w) in
      check_bool (expect ^ " agrees with the scan") true (decode_agrees st tu w);
      match Interp.decode st w with
      | Some ti -> check_str "first match wins" expect ti.Tast.ti_name
      | None -> Alcotest.failf "no match, expected %s" expect)
    [
      ((0, 0), "SPEC_A"); ((5, 0), "GEN_A"); ((0, 2), "GEN_B"); ((7, 2), "GEN_B");
      ((0, 1), "DUP_1"); ((9, 1), "DUP_1");
    ]

let () =
  Alcotest.run "coredsl"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "sized literals" `Quick test_lexer_sized_literals;
          Alcotest.test_case "comments and errors" `Quick test_lexer_comments_and_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 1 dotprod" `Quick test_parse_figure1;
          Alcotest.test_case "encoding elements" `Quick test_parse_encoding_elements;
          Alcotest.test_case "always and state" `Quick test_parse_always_and_state;
          Alcotest.test_case "operator precedence" `Quick test_parse_precedence;
          Alcotest.test_case "ternary and cast" `Quick test_parse_ternary_cast;
          Alcotest.test_case "error reporting" `Quick test_parse_error_location;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "rv32i state" `Quick test_elaborate_rv32i;
          Alcotest.test_case "inheritance" `Quick test_elaborate_inheritance;
          Alcotest.test_case "core combination" `Quick test_elaborate_core_combination;
          Alcotest.test_case "missing import" `Quick test_elaborate_missing_import;
          Alcotest.test_case "const ROM" `Quick test_elaborate_rom;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "no implicit narrowing" `Quick test_no_implicit_narrowing;
          Alcotest.test_case "widening ok" `Quick test_widening_ok;
          Alcotest.test_case "operator result types" `Quick test_operator_result_types;
          Alcotest.test_case "spawn restrictions" `Quick test_spawn_restrictions;
          Alcotest.test_case "encoding fields" `Quick test_encoding_fields;
          Alcotest.test_case "unknown identifier" `Quick test_unknown_ident;
          Alcotest.test_case "errors accumulate" `Quick test_errors_accumulate_across_instructions;
          Alcotest.test_case "rom write rejected" `Quick test_rom_write_rejected;
        ] );
      ( "interp-base",
        [
          Alcotest.test_case "addi/add" `Quick test_interp_addi_add;
          Alcotest.test_case "load/store" `Quick test_interp_load_store;
          Alcotest.test_case "branches" `Quick test_interp_branch;
          Alcotest.test_case "slt/shifts" `Quick test_interp_slt_shift;
          Alcotest.test_case "lui/jal" `Quick test_interp_lui_jal;
          Alcotest.test_case "decode overlap priority" `Quick test_decode_overlap_priority;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "parameter override" `Quick test_parameter_override_in_core;
          Alcotest.test_case "syntax error messages" `Quick test_parse_error_messages;
          Alcotest.test_case "256-bit locals" `Quick test_huge_width_values;
          Alcotest.test_case "instruction override" `Quick test_instruction_override;
        ] );
      ( "control-flow",
        [
          Alcotest.test_case "while loop" `Quick test_while_loop;
          Alcotest.test_case "do-while" `Quick test_do_while;
          Alcotest.test_case "switch" `Quick test_switch;
          Alcotest.test_case "single default" `Quick test_switch_requires_single_default;
          Alcotest.test_case "while through HLS" `Quick test_while_through_hls;
        ] );
      ( "interp-isax",
        [
          Alcotest.test_case "dotprod (fig 1)" `Quick test_interp_dotprod;
          Alcotest.test_case "sbox" `Quick test_interp_sbox;
          Alcotest.test_case "autoinc" `Quick test_interp_autoinc;
          Alcotest.test_case "ijmp" `Quick test_interp_ijmp;
          Alcotest.test_case "sqrt both variants" `Quick test_interp_sqrt;
          Alcotest.test_case "sparkle alzette" `Quick test_interp_sparkle;
          Alcotest.test_case "zol (fig 3)" `Quick test_interp_zol;
          Alcotest.test_case "spawn detection" `Quick test_spawn_detection;
        ] );
      ("properties", qcheck_cases);
    ]
