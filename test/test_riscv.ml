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
  let t = Riscv.Iss.create () in
  List.iteri (fun i w -> Riscv.Iss.write_word t (4 * i) w) words;
  List.iter (fun _ -> Riscv.Iss.step t) words;
  List.iter
    (fun (r, v) ->
      check_int (Printf.sprintf "li %d" v) (v land Riscv.Iss.mask32) (Riscv.Iss.read_reg t r))
    cases

let test_asm_errors () =
  (try
     ignore (Riscv.Asm.assemble "frobnicate x1");
     Alcotest.fail "expected error"
   with Riscv.Asm.Asm_error _ -> ());
  try
    ignore (Riscv.Asm.assemble "beq x1, x2, nowhere");
    Alcotest.fail "expected undefined label"
  with Riscv.Asm.Asm_error _ -> ()

(* ---- native ISS ---- *)

let test_iss_basic () =
  let t = Riscv.Iss.create () in
  let words = Riscv.Asm.assemble "li a0, 5\n li a1, 7\n add a2, a0, a1\n ebreak" in
  List.iteri (fun i w -> Riscv.Iss.write_word t (4 * i) w) words;
  Riscv.Iss.step t;
  Riscv.Iss.step t;
  Riscv.Iss.step t;
  check_int "a2" 12 (Riscv.Iss.read_reg t 12)

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
      let iss = Riscv.Iss.create () in
      List.iteri (fun i w -> Riscv.Iss.write_word iss (4 * i) w) words;
      List.iter (fun _ -> Riscv.Iss.step iss) words;
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
          Riscv.Iss.read_reg iss r
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
        "lui x1, 0x80000
li x2, -1
li x3, 12345
li x4, 0
lui x5, 0xFFFFF
"
        ^ String.concat "
" lines
      in
      let words = Riscv.Asm.assemble prog in
      let iss = Riscv.Iss.create () in
      List.iteri (fun i w -> Riscv.Iss.write_word iss (4 * i) w) words;
      List.iter (fun _ -> Riscv.Iss.step iss) words;
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
          Riscv.Iss.read_reg iss r = Bitvec.to_int (Coredsl.Interp.read_regfile st "X" r))
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
  let enc = Riscv.Machine.isax_encoder tu in
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
  let enc = Riscv.Machine.isax_encoder tu in
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
  let enc = Riscv.Machine.isax_encoder tuq in
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
  let enc = Riscv.Machine.isax_encoder tuq in
  let words =
    Riscv.Asm.assemble ~custom:enc
      "li a1, 1764
.isax SQRT_D rs1=a1, rd=a2
srli a3, a2, 16
add a4, a3, a3
ebreak"
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
      let iss = Riscv.Iss.create () in
      List.iteri (fun i w -> Riscv.Iss.write_word iss (4 * i) w) words;
      let rec go n =
        if Riscv.Iss.read_word iss iss.pc = ebreak then
          Some (Riscv.Iss.read_reg iss 10, Riscv.Iss.read_reg iss 1)
        else if n = 0 then None
        else (
          Riscv.Iss.step iss;
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
  List.map QCheck_alcotest.to_alcotest [ prop_iss_matches_coredsl; prop_rv32m_matches_iss ]

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
        ] );
      ( "iss",
        [
          Alcotest.test_case "basic" `Quick test_iss_basic;
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
