(* Tests for the RISC-V substrate: the native ISS, cross-validation of the
   CoreDSL-described RV32I against the ISS, the assembler, and the
   cycle-level machine models (including the Section 5.5 case study). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let u32 = Bitvec.unsigned_ty 32
let bv v = Bitvec.of_int u32 v

(* ---- assembler ---- *)

let test_asm_encodings () =
  (* golden encodings cross-checked with a standard assembler *)
  let one s = List.hd (Riscv.Asm.assemble s) in
  check_int "addi x1, x0, 42" 0x02A00093 (one "addi x1, x0, 42");
  check_int "add x3, x1, x2" 0x002081B3 (one "add x3, x1, x2");
  check_int "lw a4, 4(a1)" 0x0045A703 (one "lw a4, 4(a1)");
  check_int "sw a2, 8(a0)" 0x00C52423 (one "sw a2, 8(a0)");
  check_int "lui t0, 0x12345" 0x123452B7 (one "lui t0, 0x12345");
  check_int "srai x5, x6, 3" 0x40335293 (one "srai x5, x6, 3");
  check_int "ebreak" 0x00100073 (one "ebreak")

let test_asm_labels_and_branches () =
  let words = Riscv.Asm.assemble "start:\n addi x1, x1, 1\n bne x1, x2, start\n jal ra, start" in
  check_int "three words" 3 (List.length words);
  (* bne back by 4: imm = -4 *)
  check_int "bne encoding" 0xFE209EE3 (List.nth words 1);
  check_int "jal encoding" 0xFF9FF0EF (List.nth words 2)

let test_asm_pseudo () =
  let words = Riscv.Asm.assemble "li a0, 100000\n nop\n mv a1, a0" in
  (* li with a large value expands to lui + addi *)
  check_int "four words" 4 (List.length words)

(* li of a value whose bit 11 is set: the lui part must round up, since
   the addi immediate is sign-extended *)
let test_asm_li_values () =
  let cases = [ (11, 2048); (12, 0x12345800); (13, 0x7ffff800); (14, -2049) ] in
  let src =
    String.concat "\n" (List.map (fun (r, v) -> Printf.sprintf "li x%d, %d" r v) cases)
  in
  let words = Riscv.Asm.assemble src in
  let t = Oracle.Iss.create () in
  List.iteri (fun i w -> Oracle.Iss.write_word t (4 * i) w) words;
  List.iter (fun _ -> Oracle.Iss.step t) words;
  List.iter
    (fun (r, v) ->
      check_int (Printf.sprintf "li %d" v) (v land Oracle.Iss.mask32) (Oracle.Iss.read_reg t r))
    cases

let test_asm_errors () =
  let custom = Riscv.Asm.encoder (Isax.Registry.compile_by_name "autoinc") in
  List.iter
    (fun src ->
      match Riscv.Asm.assemble ~custom src with
      | _ -> Alcotest.failf "expected Asm_error for %S" src
      | exception Riscv.Asm.Asm_error _ -> ())
    [
      "frobnicate x1";
      "beq x1, x2, nowhere";
      "lw a0, foo(a1)";
      "add a0, a1";
      ".isax NOPE rd=a0";
      ".isax AI_LW";
    ]

(* Every accepted mnemonic, pseudo-instruction and directive, with edge
   immediates, forward and backward labels and both jalr forms. The words
   are those of the hand-written RV32IM format encoders that preceded the
   CoreDSL-derived encoding; a wrong encoding in Base_isa changes them. *)
let asm_corpus = {|# every accepted mnemonic, pseudo-instruction and directive
top:
  add a0, a1, a2
  sub t0, t1, t2
  sll s0, s1, s2
  slt x31, x30, x29
  sltu zero, ra, sp
  xor gp, tp, fp
  srl a3, a4, a5
  sra a6, a7, s3
  or s4, s5, s6
  and s7, s8, s9
  mul s10, s11, t3
  mulh t4, t5, t6
  mulhsu x1, x2, x3
  mulhu x4, x5, x6
  div x7, x8, x9
  divu x10, x11, x12
  rem x13, x14, x15
  remu x16, x17, x18
  addi a0, a0, -2048
  addi a0, a0, 2047
  slti a1, a2, -1
  sltiu a1, a2, 2048
  xori a3, a4, 0x800
  ori a5, a6, -2049
  andi a7, zero, 0x7ff
  slli t0, t1, 0
  slli t0, t1, 31
  srli t2, s0, 17
  srai s1, s2, 31
  srai s1, s2, 1
back:
  lb a0, -2048(a1)
  lh a2, 2047(a3)
  lw a4, (a5)
  lbu a6, -1(sp)
  lhu a7, 0x800(s0)
  sb a0, -2048(a1)
  sh a2, 2047(a3)
  sw a4, -1(sp)
  sw ra, 0x7e0(s0)
  beq a0, a1, fwd
  bne a2, a3, back
  blt a4, a5, top
  bge a6, a7, fwd
  bltu t0, t1, back
  bgeu t2, s0, fwd
  beq x0, x0, -4096
  bne x1, x2, 4094
  blt x3, x4, -2
  bgeu x5, x6, 8
  lui a0, 0
  lui a1, 0xFFFFF
  lui a2, -1
  lui a3, 0x80000
  lui a4, -524288
  auipc a5, 0x12345
  auipc a6, -2
  jal ra, fwd
  jal t0, back
  jal fwd
  jal top
  jalr ra, 0(a0)
  jalr x0, -4(t1)
  jalr t0, 2047(t2)
  jalr ra, a0, 8
  jalr t0, t1, -2048
  jalr s0, (s1)
  ecall
  ebreak
fwd:
  nop
  li a0, 0
  li a1, -1
  li a2, 2047
  li a3, -2048
  li a4, 2048
  li a5, -2049
  li a6, 0x12345800
  li a7, 0x7ffff800
  li t0, 0xFFFFFFFF
  li t1, 0x80000000
  li t2, 100000
  mv s0, s1
  mv a0, zero
  j back
  j end
  jal end
  ret
  beqz a0, back
  bnez a1, end
  beqz t6, top
  bnez x31, fwd
  .word 0xDEADBEEF
  .word -1
  .word 0
  .isax AI_SETUP rs1=a0, imm=-4
  .isax AI_SETUP rs1=x5 imm=2047
  .isax AI_LW rd=a1
  .isax AI_SW rs2=t0
  .isax setup_zol uimmL=4095, uimmS=31
end: ebreak
|}

let asm_corpus_words =
  {|
     00c58533 407302b3 01249433 01df2fb3 0020b033 008241b3 00f756b3 4138d833
     016aea33 019c7bb3 03cd8d33 03ff1eb3 023120b3 0262b233 029443b3 02c5d533
     02f766b3 0328f833 80050513 7ff50513 fff62593 80063593 80074693 7ff86793
     7ff07893 00031293 01f31293 01145393 41f95493 40195493 80058503 7ff69603
     0007a703 fff14803 80045883 80a58023 7ec69fa3 fee12fa3 7e142023 06b50a63
     fcd61ce3 f4f74ee3 07185463 fc62e6e3 0683f063 80000063 7e209fe3 fe41cfe3
     0062f463 00000537 fffff5b7 fffff637 800006b7 80000737 12345797 ffffe817
     030000ef f95ff2ef 028000ef f15ff0ef 000500e7 ffc30067 7ff382e7 008500e7
     800302e7 00048467 00000073 00100073 00000013 00000513 fff00593 7ff00613
     80000693 00001737 80070713 fffff7b7 7ff78793 12346837 80080813 800008b7
     80088893 000002b7 fff28293 80000337 00030313 000183b7 6a038393 00048413
     00000513 f15ff06f 03c0006f 038000ef 00008067 f00502e3 02059663 e80f82e3
     f80f98e3 deadbeef ffffffff 00000000 ffc5002b 7ff2802b 000015ab 0050202b
     ffffe02b 00100073
  |}

let test_asm_corpus () =
  let tu = Isax.Registry.compile_by_name "autoinc+zol" in
  let words = Riscv.Asm.assemble ~custom:(Riscv.Asm.encoder tu) asm_corpus in
  let expected =
    String.split_on_char ' ' (String.concat " " (String.split_on_char '\n' asm_corpus_words))
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) "corpus words" expected (List.map (Printf.sprintf "%08x") words)

(* ---- native ISS ---- *)

let test_iss_basic () =
  let t = Oracle.Iss.create () in
  let words = Riscv.Asm.assemble "li a0, 5\n li a1, 7\n add a2, a0, a1\n ebreak" in
  List.iteri (fun i w -> Oracle.Iss.write_word t (4 * i) w) words;
  Oracle.Iss.step t;
  Oracle.Iss.step t;
  Oracle.Iss.step t;
  check_int "a2" 12 (Oracle.Iss.read_reg t 12)

(* funct7 selects the operation: each R-type and shift-immediate
   instruction decodes only under its own funct7, like the CoreDSL
   encodings. A set funct7 bit on XOR, or 0x20 on SLLI, is no RV32I word. *)
let test_iss_rejects_reserved_funct7 () =
  let word_of src = List.hd (Riscv.Asm.assemble src) in
  List.iter
    (fun (src, funct7) ->
      let w = word_of src lor (funct7 lsl 25) in
      let t = Oracle.Iss.create () in
      Oracle.Iss.write_word t 0 w;
      match Oracle.Iss.step t with
      | () -> Alcotest.failf "%s with funct7 %#x decoded" src funct7
      | exception Oracle.Iss.Unknown_instruction w' -> check_int src w w')
    [
      ("sll a0, a1, a2", 0x20); ("slt a0, a1, a2", 0x20); ("sltu a0, a1, a2", 0x20);
      ("xor a0, a1, a2", 0x02); ("or a0, a1, a2", 0x20); ("and a0, a1, a2", 0x20);
      ("slli a0, a1, 3", 0x20); ("srli a0, a1, 3", 0x10); ("srai a0, a1, 3", 0x30);
    ]

(* cross-validation: run random short ALU programs through the native ISS
   and the CoreDSL-described RV32I interpreter; states must agree *)
let prop_iss_matches_coredsl =
  let tu = Coredsl.compile_rv32i () in
  QCheck.Test.make ~name:"native ISS matches CoreDSL RV32I" ~count:100 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rnd n = Random.State.int rng n in
      (* build a random straight-line program over ALU ops and memory *)
      let mnems =
        [|
          (fun () -> Printf.sprintf "addi x%d, x%d, %d" (1 + rnd 15) (rnd 16) (rnd 2048 - 1024));
          (fun () -> Printf.sprintf "add x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "sub x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "xor x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "and x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "or x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "slt x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "sltu x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16));
          (fun () -> Printf.sprintf "slli x%d, x%d, %d" (1 + rnd 15) (rnd 16) (rnd 32));
          (fun () -> Printf.sprintf "srli x%d, x%d, %d" (1 + rnd 15) (rnd 16) (rnd 32));
          (fun () -> Printf.sprintf "srai x%d, x%d, %d" (1 + rnd 15) (rnd 16) (rnd 32));
          (fun () -> Printf.sprintf "lui x%d, %d" (1 + rnd 15) (rnd 1048576));
          (* the data region starts above the code so stores cannot
             self-modify the program *)
          (fun () -> Printf.sprintf "sw x%d, %d(x0)" (rnd 16) (1024 + (4 * rnd 64)));
          (fun () -> Printf.sprintf "lw x%d, %d(x0)" (1 + rnd 15) (1024 + (4 * rnd 64)));
          (fun () -> Printf.sprintf "lb x%d, %d(x0)" (1 + rnd 15) (1024 + rnd 256));
          (fun () -> Printf.sprintf "sh x%d, %d(x0)" (rnd 16) (1024 + (2 * rnd 128)));
        |]
      in
      let lines = List.init 25 (fun _ -> mnems.(rnd (Array.length mnems)) ()) in
      let prog = String.concat "\n" lines in
      let words = Riscv.Asm.assemble prog in
      (* native ISS *)
      let iss = Oracle.Iss.create () in
      List.iteri (fun i w -> Oracle.Iss.write_word iss (4 * i) w) words;
      List.iter (fun _ -> Oracle.Iss.step iss) words;
      (* CoreDSL interpreter *)
      let st = Coredsl.Interp.create tu in
      List.iteri
        (fun i w -> Coredsl.Interp.write_mem st "MEM" (4 * i) 4 (bv w))
        words;
      List.iter
        (fun w ->
          match Coredsl.Interp.decode st (bv w) with
          | Some ti -> Coredsl.Interp.exec_instr st ti ~instr_word:(bv w)
          | None -> Alcotest.failf "undecodable word %08x" w)
        words;
      (* compare the full register file *)
      List.for_all
        (fun r ->
          Oracle.Iss.read_reg iss r
          = Bitvec.to_int (Coredsl.Interp.read_regfile st "X" r))
        (List.init 32 Fun.id))

(* the RV32M extension: corner cases against the spec, then random
   programs against the native ISS *)
let test_rv32m_corner_cases () =
  let tu = Coredsl.compile_rv32im () in
  let st = Coredsl.Interp.create tu in
  let exec name fields =
    let ti = Option.get (Coredsl.Tast.find_tinstr tu name) in
    let w = Coredsl.Interp.encode ti (List.map (fun (k, v) -> (k, bv v)) fields) in
    Coredsl.Interp.exec_instr st ti ~instr_word:w
  in
  let setx i v = Coredsl.Interp.write_regfile st "X" i (bv v) in
  let getx i = Bitvec.to_int (Coredsl.Interp.read_regfile st "X" i) in
  (* plain multiply *)
  setx 1 7;
  setx 2 6;
  exec "MUL" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "7*6" 42 (getx 3);
  (* high half of signed product: -1 * -1 = 1, high word 0 *)
  setx 1 0xFFFFFFFF;
  setx 2 0xFFFFFFFF;
  exec "MULH" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "mulh(-1,-1)" 0 (getx 3);
  exec "MULHU" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "mulhu(max,max)" 0xFFFFFFFE (getx 3);
  (* division corner cases from the RISC-V spec *)
  setx 1 17;
  setx 2 0;
  exec "DIV" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "div by zero" 0xFFFFFFFF (getx 3);
  exec "REM" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "rem by zero" 17 (getx 3);
  setx 1 0x80000000;
  setx 2 0xFFFFFFFF;
  exec "DIV" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "min / -1 overflows to min" 0x80000000 (getx 3);
  exec "REM" [ ("rs1", 1); ("rs2", 2); ("rd", 3) ];
  check_int "min %% -1 = 0" 0 (getx 3)

let prop_rv32m_matches_iss =
  let tu = Coredsl.compile_rv32im () in
  QCheck.Test.make ~name:"RV32M matches native ISS" ~count:80 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rnd n = Random.State.int rng n in
      let mnems = [| "mul"; "mulh"; "mulhsu"; "mulhu"; "div"; "divu"; "rem"; "remu" |] in
      let lines =
        List.init 20 (fun _ ->
            Printf.sprintf "%s x%d, x%d, x%d" mnems.(rnd 8) (1 + rnd 15) (rnd 16) (rnd 16))
      in
      (* seed some interesting register values first *)
      let prog =
        {|lui x1, 0x80000
li x2, -1
li x3, 12345
li x4, 0
lui x5, 0xFFFFF
|}
        ^ String.concat "\n" lines
      in
      let words = Riscv.Asm.assemble prog in
      let iss = Oracle.Iss.create () in
      List.iteri (fun i w -> Oracle.Iss.write_word iss (4 * i) w) words;
      List.iter (fun _ -> Oracle.Iss.step iss) words;
      let st = Coredsl.Interp.create tu in
      List.iteri (fun i w -> Coredsl.Interp.write_mem st "MEM" (4 * i) 4 (bv w)) words;
      List.iter
        (fun w ->
          match Coredsl.Interp.decode st (bv w) with
          | Some ti -> Coredsl.Interp.exec_instr st ti ~instr_word:(bv w)
          | None -> Alcotest.failf "undecodable %08x" w)
        words;
      List.for_all
        (fun r ->
          Oracle.Iss.read_reg iss r = Bitvec.to_int (Coredsl.Interp.read_regfile st "X" r))
        (List.init 32 Fun.id))

(* ---- machine timing ---- *)

let test_machine_runs_program () =
  let tu = Coredsl.compile_rv32i () in
  let m = Riscv.Machine.create ~timing:Riscv.Machine.vexriscv_timing tu in
  let words = Riscv.Asm.assemble "li a0, 5\nli a1, 6\nadd a0, a0, a1\nebreak" in
  Riscv.Machine.load_program m words;
  let cycles = Riscv.Machine.run m in
  check_int "result" 11 (Riscv.Machine.read_gpr m 10);
  check_int "cycles: 3 + ebreak" 4 cycles

let test_machine_memory_and_branch_costs () =
  let tu = Coredsl.compile_rv32i () in
  let m = Riscv.Machine.create ~timing:Riscv.Machine.vexriscv_timing tu in
  let words = Riscv.Asm.assemble "lw a0, 0(zero)\nj skip\nnop\nskip:\nebreak" in
  Riscv.Machine.load_program m words;
  let cycles = Riscv.Machine.run m in
  (* lw = 1+9, j = 1+4, ebreak = 1 *)
  check_int "cycles" 16 cycles

(* the Section 5.5 case study numbers *)
let test_case_study_formulas () =
  let tu = Isax.Registry.compile_by_name "autoinc+zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let b1 = Riscv.Case_study.run_baseline ~n:64 in
  let b2 = Riscv.Case_study.run_baseline ~n:256 in
  check_int "baseline checksum" (Riscv.Case_study.expected_sum 64) b1.checksum;
  let a, b = Riscv.Case_study.fit (64, b1.cycles) (256, b2.cycles) in
  check_int "baseline slope 18" 18 a;
  check_bool (Printf.sprintf "baseline const %d ~ 50" b) true (abs (b - 50) <= 5);
  let i1 = Riscv.Case_study.run_isax ~n:64 c in
  let i2 = Riscv.Case_study.run_isax ~n:256 c in
  check_int "isax checksum" (Riscv.Case_study.expected_sum 64) i1.checksum;
  let a2, b2' = Riscv.Case_study.fit (64, i1.cycles) (256, i2.cycles) in
  check_int "isax slope 11" 11 a2;
  check_bool (Printf.sprintf "isax const %d ~ 50" b2') true (abs (b2' - 50) <= 5);
  (* >60% speedup at large n (the paper's headline) *)
  let speedup = float_of_int b2.cycles /. float_of_int i2.cycles in
  check_bool (Printf.sprintf "speedup %.2f > 1.6" speedup) true (speedup > 1.6)

let test_machine_zol_redirect_free () =
  (* a tight ZOL loop executes its body with zero loop overhead *)
  let tu = Isax.Registry.compile_by_name "zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let m = Riscv.Machine.of_compiled c in
  let enc = Riscv.Asm.encoder tu in
  (* run 10 iterations of a 2-instruction body *)
  let words =
    Riscv.Asm.assemble ~custom:enc
      "li a0, 0\n.isax setup_zol uimmL=10, uimmS=6\nbody:\naddi a0, a0, 1\naddi a0, a0, 1\nebreak"
  in
  Riscv.Machine.load_program m words;
  let cycles = Riscv.Machine.run m in
  (* Figure 3 semantics: the body falls through once and is re-entered by
     COUNT redirects, so it runs COUNT+1 times *)
  check_int "2*11 increments" 22 (Riscv.Machine.read_gpr m 10);
  (* li + setup + 22 addi + ebreak, zero loop overhead *)
  check_int "cycles" 25 cycles

let test_machine_decoupled_scoreboard () =
  (* a dependent instruction right after SQRT_D stalls until the decoupled
     result commits; an independent one does not *)
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let enc = Riscv.Asm.encoder tu in
  let run prog =
    let m = Riscv.Machine.of_compiled c in
    let words = Riscv.Asm.assemble ~custom:enc prog in
    Riscv.Machine.load_program m words;
    (Riscv.Machine.run m, m)
  in
  let dep_cycles, m1 =
    run "li a1, 16\n.isax SQRT_D rs1=a1, rd=a2\nadd a3, a2, a2\nebreak"
  in
  let indep_cycles, _ =
    run "li a1, 16\n.isax SQRT_D rs1=a1, rd=a2\nadd a3, a4, a4\nebreak"
  in
  check_bool
    (Printf.sprintf "dependent (%d) slower than independent (%d)" dep_cycles indep_cycles)
    true (dep_cycles > indep_cycles);
  (* architecture still correct: sqrt(16 * 2^32) = 4 * 65536 *)
  check_int "sqrt result" (4 * 65536) (Riscv.Machine.read_gpr m1 12)

(* ---- RTL-in-the-loop whole-program verification (Section 5.3) ---- *)

let test_rtl_in_the_loop_case_study () =
  (* the Section 5.5 autoinc+zol program, with every AI_SETUP / AI_LW /
     setup_zol instruction and every zol always-block tick executing
     through the generated RTL; the result must match the interpreter *)
  let tuq = Isax.Registry.compile_by_name "autoinc+zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tuq in
  let n = 8 in
  let enc = Riscv.Asm.encoder tuq in
  let words = Riscv.Asm.assemble ~custom:enc (Riscv.Case_study.isax_program n) in
  (* RTL-in-the-loop run *)
  let rl = Riscv.Rtl_loop.create c in
  Riscv.Rtl_loop.write_pc rl 0;
  Riscv.Rtl_loop.load_program rl words;
  (Coredsl.Interp.reg_array rl.Riscv.Rtl_loop.st "X").(2) <- bv 0x8000;
  for i = 0 to n - 1 do
    Coredsl.Interp.write_mem rl.Riscv.Rtl_loop.st "MEM" (0x1000 + (4 * i)) 4 (bv (i + 1))
  done;
  let instret = Riscv.Rtl_loop.run rl in
  check_int "checksum through RTL" (Riscv.Case_study.expected_sum n)
    (Riscv.Rtl_loop.read_gpr rl 10);
  check_bool "executed a plausible number of instructions" true (instret > 2 * n);
  (* compare the complete register file against a pure-interpreter run *)
  let m = Riscv.Machine.of_compiled c in
  Riscv.Machine.write_gpr m 2 0x8000;
  Riscv.Machine.load_program m words;
  for i = 0 to n - 1 do
    Riscv.Machine.store_word m (0x1000 + (4 * i)) (i + 1)
  done;
  ignore (Riscv.Machine.run m);
  List.iter
    (fun r ->
      check_int (Printf.sprintf "x%d matches" r) (Riscv.Machine.read_gpr m r)
        (Riscv.Rtl_loop.read_gpr rl r))
    (List.init 32 Fun.id)

let test_rtl_in_the_loop_sqrt () =
  (* a program mixing base instructions and the decoupled sqrt *)
  let tuq = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tuq in
  let enc = Riscv.Asm.encoder tuq in
  let words =
    Riscv.Asm.assemble ~custom:enc
      {|li a1, 1764
.isax SQRT_D rs1=a1, rd=a2
srli a3, a2, 16
add a4, a3, a3
ebreak|}
  in
  let rl = Riscv.Rtl_loop.create c in
  Riscv.Rtl_loop.load_program rl words;
  ignore (Riscv.Rtl_loop.run rl);
  check_int "sqrt(1764) = 42" 42 (Riscv.Rtl_loop.read_gpr rl 13);
  check_int "dependent add" 84 (Riscv.Rtl_loop.read_gpr rl 14)

(* A branch or jump to its own address is taken: the native ISS spins on
   it, and so must the cost model, the structural pipeline and
   RTL-in-the-loop (they once fell through, because they read "PC
   unchanged" as "not taken"). With a small budget a spinning program
   runs out of fuel on all four; an untaken self-branch falls through and
   halts on all four. *)
let test_self_branch_engines_agree () =
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv (Coredsl.compile_rv32i ()) in
  let fuel = 40 in
  let ebreak = 0x00100073 in
  (* outcome: Some (a0, ra) when halted, None when out of fuel *)
  let show = function
    | Some (a0, ra) -> Printf.sprintf "halted a0=%d ra=%d" a0 ra
    | None -> "out of fuel"
  in
  let outcome run read_gpr =
    match run () with
    | () -> Some (read_gpr 10, read_gpr 1)
    | exception Riscv.Machine.Out_of_fuel n ->
        check_int "budget in the exception" fuel n;
        None
  in
  List.iter
    (fun (name, src, spins) ->
      let words = Riscv.Asm.assemble src in
      let iss = Oracle.Iss.create () in
      List.iteri (fun i w -> Oracle.Iss.write_word iss (4 * i) w) words;
      let rec go n =
        if Oracle.Iss.read_word iss iss.pc = ebreak then
          Some (Oracle.Iss.read_reg iss 10, Oracle.Iss.read_reg iss 1)
        else if n = 0 then None
        else (
          Oracle.Iss.step iss;
          go (n - 1))
      in
      let expected = go fuel in
      check_bool (name ^ ": iss spins") spins (expected = None);
      let m = Riscv.Machine.of_compiled c in
      Riscv.Machine.load_program m words;
      let p = Riscv.Pipeline.create c in
      Riscv.Pipeline.load_program p words;
      let rl = Riscv.Rtl_loop.create c in
      Riscv.Rtl_loop.load_program rl words;
      List.iter
        (fun (engine, got) ->
          Alcotest.(check string) (name ^ ": " ^ engine ^ " = iss") (show expected) (show got))
        [
          ( "cost",
            outcome (fun () -> ignore (Riscv.Machine.run ~fuel m)) (Riscv.Machine.read_gpr m) );
          ( "pipeline",
            outcome (fun () -> ignore (Riscv.Pipeline.run ~fuel p)) (Riscv.Pipeline.read_gpr p) );
          ( "rtl-loop",
            outcome (fun () -> ignore (Riscv.Rtl_loop.run ~fuel rl)) (Riscv.Rtl_loop.read_gpr rl) );
        ];
      if spins then begin
        let spin_pc = 4 * (List.length words - 2) in
        check_int (name ^ ": cost pc at the spin") spin_pc (Riscv.Machine.read_pc m);
        check_int (name ^ ": rtl-loop pc at the spin") spin_pc (Riscv.Rtl_loop.read_pc rl)
      end)
    [
      ("j .", "li a0, 5\nspin: j spin\nebreak", true);
      ("beq x0, x0, .", "li a0, 5\nspin: beq x0, x0, spin\nebreak", true);
      ("jal ra, .", "li a0, 5\nspin: jal ra, spin\nebreak", true);
      ("untaken beq .", "li a0, 5\nhere: beq a0, x0, here\naddi a0, a0, 1\nebreak", false);
      ("untaken bne .", "li a0, 5\nhere: bne a0, a0, here\naddi a0, a0, 1\nebreak", false);
    ]

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_iss_matches_coredsl; prop_rv32m_matches_iss ]

let () =
  Alcotest.run "riscv"
    [
      ( "asm",
        [
          Alcotest.test_case "golden encodings" `Quick test_asm_encodings;
          Alcotest.test_case "labels and branches" `Quick test_asm_labels_and_branches;
          Alcotest.test_case "pseudo instructions" `Quick test_asm_pseudo;
          Alcotest.test_case "li immediates" `Quick test_asm_li_values;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "corpus of every form" `Quick test_asm_corpus;
        ] );
      ( "iss",
        [
          Alcotest.test_case "basic" `Quick test_iss_basic;
          Alcotest.test_case "reserved funct7 rejected" `Quick test_iss_rejects_reserved_funct7;
          Alcotest.test_case "rv32m corner cases" `Quick test_rv32m_corner_cases;
        ] );
      ( "machine",
        [
          Alcotest.test_case "runs a program" `Quick test_machine_runs_program;
          Alcotest.test_case "memory/branch costs" `Quick test_machine_memory_and_branch_costs;
          Alcotest.test_case "case study 5.5 formulas" `Quick test_case_study_formulas;
          Alcotest.test_case "zol zero overhead" `Quick test_machine_zol_redirect_free;
          Alcotest.test_case "decoupled scoreboard" `Quick test_machine_decoupled_scoreboard;
          Alcotest.test_case "self branches agree with the iss" `Quick test_self_branch_engines_agree;
        ] );
      ( "rtl-in-the-loop",
        [
          Alcotest.test_case "case study program" `Slow test_rtl_in_the_loop_case_study;
          Alcotest.test_case "sqrt program" `Quick test_rtl_in_the_loop_sqrt;
        ] );
      ("properties", qcheck_cases);
    ]
