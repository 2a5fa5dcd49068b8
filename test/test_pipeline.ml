(* Tests for the structural pipeline simulator: base-ISA programs against
   the native ISS, and ISAX programs (through the actual generated RTL,
   stage by stage) against the reference interpreter / cost-model runs. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_pipeline compiled ?(setup = fun _ -> ()) prog =
  let tu = compiled.Longnail.Flow.unit_ in
  let enc = Riscv.Machine.isax_encoder tu in
  let words = Riscv.Asm.assemble ~custom:enc prog in
  let p = Riscv.Pipeline.create compiled in
  Riscv.Pipeline.load_program p words;
  setup p;
  let cycles = Riscv.Pipeline.run p in
  (p, cycles)

let rv32i_compiled =
  lazy (Longnail.Flow.compile Scaiev.Datasheet.vexriscv (Coredsl.compile_rv32i ()))

let test_base_alu_program () =
  let p, _ =
    run_pipeline (Lazy.force rv32i_compiled)
      "li a0, 5\nli a1, 7\nadd a2, a0, a1\nsub a3, a2, a0\nxor a4, a2, a3\nebreak"
  in
  check_int "a2" 12 (Riscv.Pipeline.read_gpr p 12);
  check_int "a3" 7 (Riscv.Pipeline.read_gpr p 13);
  check_int "a4" (12 lxor 7) (Riscv.Pipeline.read_gpr p 14)

let test_base_forwarding_chain () =
  (* back-to-back dependent instructions exercise the bypass network *)
  let p, _ =
    run_pipeline (Lazy.force rv32i_compiled)
      "li a0, 1\nadd a0, a0, a0\nadd a0, a0, a0\nadd a0, a0, a0\nadd a0, a0, a0\nebreak"
  in
  check_int "2^4" 16 (Riscv.Pipeline.read_gpr p 10)

let test_base_loop_program () =
  (* a real loop with branches: sum 1..10 *)
  let p, _ =
    run_pipeline (Lazy.force rv32i_compiled)
      "li a0, 0\nli a1, 10\nloop:\nadd a0, a0, a1\naddi a1, a1, -1\nbnez a1, loop\nebreak"
  in
  check_int "sum 1..10" 55 (Riscv.Pipeline.read_gpr p 10)

let test_base_memory_program () =
  let p, _ =
    run_pipeline (Lazy.force rv32i_compiled)
      "li a1, 0x100\nli a2, 1234\nsw a2, 0(a1)\nnop\nnop\nnop\nnop\nnop\nlw a3, 0(a1)\nadd a4, a3, a3\nebreak"
  in
  check_int "store/load roundtrip" 1234 (Riscv.Pipeline.read_gpr p 13);
  check_int "dependent use" 2468 (Riscv.Pipeline.read_gpr p 14)

let test_isax_dotprod_in_pipeline () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let p, _ =
    run_pipeline c
      "li a0, 67305985\nli a2, 673059850\n.isax DOTP rs1=a0, rs2=a2, rd=a4\nadd a5, a4, a4\nebreak"
  in
  (* a0 = 0x04030201 bytes 1,2,3,4; a2 = 0x281E140A bytes 10,20,30,40 *)
  check_int "dotp through the pipe" 300 (Riscv.Pipeline.read_gpr p 14);
  check_int "dependent consumer forwarded" 600 (Riscv.Pipeline.read_gpr p 15)

let test_isax_back_to_back () =
  (* two custom instructions in flight simultaneously inside ONE module
     instance: the second enters while the first is still in the pipe *)
  let tu = Isax.Registry.compile_by_name "sbox" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let p, _ =
    run_pipeline c
      "li a0, 0x53\nli a1, 0x52\n.isax SUBBYTES rs1=a0, rd=a2\n.isax SUBBYTES rs1=a1, rd=a3\nebreak"
  in
  (* sbox(0x53) = 0xED, sbox(0x52) = 0x00; upper bytes sbox(0) = 0x63 *)
  check_int "first" 0x636363ED (Riscv.Pipeline.read_gpr p 12);
  check_int "second" 0x63636300 (Riscv.Pipeline.read_gpr p 13)

let test_isax_sqrt_deep_module () =
  (* the sqrt module is deeper than the core pipeline: the commit point
     extends and the dependent consumer waits for the real RTL result *)
  let tu = Isax.Registry.compile_by_name "sqrt_tightly" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let p, cycles =
    run_pipeline c "li a1, 1764\n.isax SQRT rs1=a1, rd=a2\nsrli a3, a2, 16\nebreak"
  in
  check_int "sqrt(1764) Q16.16" (42 * 65536) (Riscv.Pipeline.read_gpr p 12);
  check_int "dependent shift" 42 (Riscv.Pipeline.read_gpr p 13);
  check_bool "took at least the module depth" true (cycles > 10)

let test_isax_autoinc_memory () =
  let tu = Isax.Registry.compile_by_name "autoinc" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let p, _ =
    run_pipeline c
      ~setup:(fun p ->
        Riscv.Pipeline.store_word p 0x200 111;
        Riscv.Pipeline.store_word p 0x204 222)
      "li a1, 0x200\n.isax AI_SETUP rs1=a1, imm=0\n.isax AI_LW rd=a2\n.isax AI_LW rd=a3\nadd a4, a2, a3\nebreak"
  in
  check_int "first load" 111 (Riscv.Pipeline.read_gpr p 12);
  check_int "second load (ADDR forwarded in custom regfile)" 222 (Riscv.Pipeline.read_gpr p 13);
  check_int "sum" 333 (Riscv.Pipeline.read_gpr p 14)

let test_isax_zol_zero_overhead () =
  (* the ZOL always-block redirects the fetch: the body runs with no
     loop-control instructions at all, through the real RTL every cycle *)
  let tu = Isax.Registry.compile_by_name "zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let p, _ =
    run_pipeline c
      "li a0, 0\n.isax setup_zol uimmL=9, uimmS=6\nbody:\naddi a0, a0, 1\naddi a0, a0, 1\nebreak"
  in
  (* body of 2 instructions runs 10 times (fall-in + 9 redirects) *)
  check_int "20 increments" 20 (Riscv.Pipeline.read_gpr p 10)

let test_pipeline_matches_machine () =
  (* the Section 5.5 program: structural pipeline and cost-model machine
     must agree on the complete architectural result *)
  let tu = Isax.Registry.compile_by_name "autoinc+zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let n = 8 in
  let enc = Riscv.Machine.isax_encoder tu in
  let words = Riscv.Asm.assemble ~custom:enc (Riscv.Case_study.isax_program n) in
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  Riscv.Pipeline.write_gpr p 2 0x8000;
  for i = 0 to n - 1 do
    Riscv.Pipeline.store_word p (0x1000 + (4 * i)) (i + 1)
  done;
  ignore (Riscv.Pipeline.run p);
  let m = Riscv.Machine.of_compiled c in
  Riscv.Machine.write_gpr m 2 0x8000;
  Riscv.Machine.load_program m words;
  for i = 0 to n - 1 do
    Riscv.Machine.store_word m (0x1000 + (4 * i)) (i + 1)
  done;
  ignore (Riscv.Machine.run m);
  check_int "checksum" (Riscv.Case_study.expected_sum n) (Riscv.Pipeline.read_gpr p 10);
  List.iter
    (fun r ->
      check_int (Printf.sprintf "x%d" r) (Riscv.Machine.read_gpr m r)
        (Riscv.Pipeline.read_gpr p r))
    (List.init 32 Fun.id)

let test_pipeline_other_cores () =
  (* the same ISAX program runs structurally on cores with different
     operand/writeback stages (portability, made literal) *)
  List.iter
    (fun core ->
      let tu = Isax.Registry.compile_by_name "dotprod" in
      let c = Longnail.Flow.compile core tu in
      let enc = Riscv.Machine.isax_encoder tu in
      let words =
        Riscv.Asm.assemble ~custom:enc
          "li a0, 67305985\nli a2, 673059850\n.isax DOTP rs1=a0, rs2=a2, rd=a4\nebreak"
      in
      let p = Riscv.Pipeline.create c in
      Riscv.Pipeline.load_program p words;
      ignore (Riscv.Pipeline.run p);
      check_int (core.Scaiev.Datasheet.core_name ^ " dotp") 300 (Riscv.Pipeline.read_gpr p 14))
    (* every registered pipelined core, mriscv included; the structural
       pipeline does not model FSM-sequenced cores (PicoRV32) *)
    (List.filter
       (fun (c : Scaiev.Datasheet.t) -> not c.is_fsm)
       (Scaiev.Core_registry.datasheets ()))

let test_mriscv_case_study_engines () =
  (* the fifth (registry-only) core: the Section 5.5 case-study program
     through all three execution engines — structural pipeline with the
     generated RTL, registry-backed cycle-cost machine, RTL-in-the-loop
     — must agree on the architectural result *)
  let core = Scaiev.Core_registry.mriscv in
  let tu = Isax.Registry.compile_by_name "autoinc+zol" in
  let c = Longnail.Flow.compile core tu in
  let n = 6 in
  let enc = Riscv.Machine.isax_encoder tu in
  let words = Riscv.Asm.assemble ~custom:enc (Riscv.Case_study.isax_program n) in
  let expect = Riscv.Case_study.expected_sum n in
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  Riscv.Pipeline.write_gpr p 2 0x8000;
  for i = 0 to n - 1 do
    Riscv.Pipeline.store_word p (0x1000 + (4 * i)) (i + 1)
  done;
  ignore (Riscv.Pipeline.run p);
  check_int "pipeline checksum" expect (Riscv.Pipeline.read_gpr p 10);
  let m = Riscv.Machine.of_compiled c in
  Riscv.Machine.write_gpr m 2 0x8000;
  Riscv.Machine.load_program m words;
  for i = 0 to n - 1 do
    Riscv.Machine.store_word m (0x1000 + (4 * i)) (i + 1)
  done;
  ignore (Riscv.Machine.run m);
  check_int "machine checksum" expect (Riscv.Machine.read_gpr m 10);
  let rl = Riscv.Rtl_loop.create c in
  Riscv.Rtl_loop.load_program rl words;
  (Coredsl.Interp.reg_array rl.Riscv.Rtl_loop.st "X").(2) <- Bitvec.of_int (Bitvec.unsigned_ty 32) 0x8000;
  for i = 0 to n - 1 do
    Coredsl.Interp.write_mem rl.Riscv.Rtl_loop.st "MEM" (0x1000 + (4 * i)) 4
      (Bitvec.of_int (Bitvec.unsigned_ty 32) (i + 1))
  done;
  ignore (Riscv.Rtl_loop.run rl);
  check_int "rtl-loop checksum" expect (Riscv.Rtl_loop.read_gpr rl 10)

let test_pipeline_sparkle_orca () =
  (* ORCA reads operands late (stage 3): the module ports follow *)
  let tu = Isax.Registry.compile_by_name "sparkle" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.orca tu in
  let enc = Riscv.Machine.isax_encoder tu in
  let words =
    Riscv.Asm.assemble ~custom:enc
      "li a0, 3\nli a1, 4\n.isax ALZ_X rs1=a0, rs2=a1, rd=a2\n.isax ALZ_Y rs1=a0, rs2=a1, rd=a3\nebreak"
  in
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  ignore (Riscv.Pipeline.run p);
  (* reference via interpreter *)
  let st = Coredsl.Interp.create tu in
  let exec name rd =
    let ti = Option.get (Coredsl.Tast.find_tinstr tu name) in
    let u32 = Bitvec.unsigned_ty 32 in
    Coredsl.Interp.write_regfile st "X" 1 (Bitvec.of_int u32 3);
    Coredsl.Interp.write_regfile st "X" 2 (Bitvec.of_int u32 4);
    let w =
      Coredsl.Interp.encode ti
        [ ("rs1", Bitvec.of_int u32 1); ("rs2", Bitvec.of_int u32 2); ("rd", Bitvec.of_int u32 rd) ]
    in
    Coredsl.Interp.exec_instr st ti ~instr_word:w;
    Bitvec.to_int (Coredsl.Interp.read_regfile st "X" rd)
  in
  check_int "alz_x" (exec "ALZ_X" 12) (Riscv.Pipeline.read_gpr p 12);
  check_int "alz_y" (exec "ALZ_Y" 13) (Riscv.Pipeline.read_gpr p 13)

let test_pipeline_arbitration () =
  (* two different ISAX modules write the same custom register in program
     order: AI_SETUP then AI_SW both update ADDR; the committed value must
     reflect the deterministic (program) order, Section 3.3 *)
  let tu = Isax.Registry.compile_by_name "autoinc" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let enc = Riscv.Machine.isax_encoder tu in
  let words =
    Riscv.Asm.assemble ~custom:enc
      "li a1, 0x300\nli a2, 77\n.isax AI_SETUP rs1=a1, imm=0\n.isax AI_SW rs2=a2\n.isax AI_SW rs2=a2\nebreak"
  in
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  ignore (Riscv.Pipeline.run p);
  (* ADDR = 0x300 (setup), then two stores increment it to 0x308 *)
  check_int "ADDR after arbitration" 0x308
    (Bitvec.to_int (Coredsl.Interp.read_reg p.Riscv.Pipeline.st "ADDR"));
  check_int "first store landed" 77
    (Bitvec.to_int (Coredsl.Interp.read_mem p.Riscv.Pipeline.st "MEM" 0x300 4));
  check_int "second store landed" 77
    (Bitvec.to_int (Coredsl.Interp.read_mem p.Riscv.Pipeline.st "MEM" 0x304 4))

let test_decoupled_overtaking () =
  (* the decoupled sqrt detaches at writeback: ten independent followers
     commit while it computes, so the program finishes well before the
     tightly-coupled variant, which stalls the whole core (Section 3.2) *)
  let independent = String.concat "\n" (List.init 10 (fun i -> Printf.sprintf "addi t%d, zero, %d" (i mod 3) i)) in
  let run isax instr =
    let tu = Isax.Registry.compile_by_name isax in
    let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
    let enc = Riscv.Machine.isax_encoder tu in
    let words =
      Riscv.Asm.assemble ~custom:enc
        (Printf.sprintf "li a1, 1764\n.isax %s rs1=a1, rd=a2\n%s\nsrli a3, a2, 16\nebreak" instr
           independent)
    in
    let p = Riscv.Pipeline.create c in
    Riscv.Pipeline.load_program p words;
    let cycles = Riscv.Pipeline.run p in
    check_int (isax ^ " result") 42 (Riscv.Pipeline.read_gpr p 13);
    cycles
  in
  let tightly = run "sqrt_tightly" "SQRT" in
  let decoupled = run "sqrt_decoupled" "SQRT_D" in
  check_bool
    (Printf.sprintf "decoupled (%d cycles) beats tightly (%d cycles)" decoupled tightly)
    true
    (decoupled < tightly)

let test_decoupled_dependent_stalls () =
  (* a dependent reader right behind the decoupled sqrt waits on the
     scoreboard but still gets the correct RTL result *)
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let enc = Riscv.Machine.isax_encoder tu in
  let words =
    Riscv.Asm.assemble ~custom:enc
      "li a1, 1764\n.isax SQRT_D rs1=a1, rd=a2\nsrli a3, a2, 16\nadd a4, a3, a3\nebreak"
  in
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  ignore (Riscv.Pipeline.run p);
  check_int "sqrt" 42 (Riscv.Pipeline.read_gpr p 13);
  check_int "chained use" 84 (Riscv.Pipeline.read_gpr p 14)

(* ---- pinned timing ---- *)

(* (cycles, instret) of the structural pipeline on fixed programs: the
   Section 5.5 program on every pipelined core and the ISAX programs of
   the tests above. A change to how the pipeline drives and services its
   ISAX modules must not move any of them. *)
let timing_golden =
  [
    ("case_study_ORCA", 48, 30);
    ("case_study_Piccolo", 44, 30);
    ("case_study_VexRiscv", 57, 30);
    ("case_study_mriscv", 66, 30);
    ("dotprod", 11, 6);
    ("dotprod_back_to_back", 12, 7);
    ("sqrt_tightly", 23, 13);
    ("sqrt_decoupled", 18, 13);
    ("sqrt_decoupled_dependent", 16, 4);
    ("zol", 27, 22);
    ("autoinc", 12, 5);
    ("autoinc_store", 10, 5);
    ("sparkle_orca", 9, 4);
  ]

let test_pinned_timing () =
  let measure core isax ?(setup = fun _ -> ()) prog =
    let p, cycles =
      run_pipeline (Longnail.Flow.compile core (Isax.Registry.compile_by_name isax)) ~setup prog
    in
    (cycles, p.Riscv.Pipeline.instret)
  in
  let vex = Scaiev.Datasheet.vexriscv in
  let n = 8 in
  let case_study =
    List.map
      (fun (core : Scaiev.Datasheet.t) ->
        ( "case_study_" ^ core.core_name,
          measure core "autoinc+zol"
            ~setup:(fun p ->
              Riscv.Pipeline.write_gpr p 2 0x8000;
              for i = 0 to n - 1 do
                Riscv.Pipeline.store_word p (0x1000 + (4 * i)) (i + 1)
              done)
            (Riscv.Case_study.isax_program n) ))
      (List.filter (fun (c : Scaiev.Datasheet.t) -> not c.is_fsm) (Scaiev.Core_registry.datasheets ()))
  in
  let sqrt instr =
    Printf.sprintf "li a1, 1764\n.isax %s rs1=a1, rd=a2\n%s\nsrli a3, a2, 16\nebreak" instr
      (String.concat "\n" (List.init 10 (fun i -> Printf.sprintf "addi t%d, zero, %d" (i mod 3) i)))
  in
  let measured =
    case_study
    @ [
        ( "dotprod",
          measure vex "dotprod"
            "li a0, 67305985\nli a2, 673059850\n.isax DOTP rs1=a0, rs2=a2, rd=a4\nadd a5, a4, a4\nebreak" );
        ( "dotprod_back_to_back",
          measure vex "dotprod"
            "li a0, 67305985\nli a2, 673059850\n.isax DOTP rs1=a0, rs2=a2, rd=a4\n.isax DOTP rs1=a4, rs2=a2, rd=a5\nadd a6, a5, a4\nebreak"
        );
        ("sqrt_tightly", measure vex "sqrt_tightly" (sqrt "SQRT"));
        ("sqrt_decoupled", measure vex "sqrt_decoupled" (sqrt "SQRT_D"));
        ( "sqrt_decoupled_dependent",
          measure vex "sqrt_decoupled"
            "li a1, 1764\n.isax SQRT_D rs1=a1, rd=a2\nsrli a3, a2, 16\nadd a4, a3, a3\nebreak" );
        ( "zol",
          measure vex "zol"
            "li a0, 0\n.isax setup_zol uimmL=9, uimmS=6\nbody:\naddi a0, a0, 1\naddi a0, a0, 1\nebreak" );
        ( "autoinc",
          measure vex "autoinc"
            ~setup:(fun p ->
              Riscv.Pipeline.store_word p 0x200 111;
              Riscv.Pipeline.store_word p 0x204 222)
            "li a1, 0x200\n.isax AI_SETUP rs1=a1, imm=0\n.isax AI_LW rd=a2\n.isax AI_LW rd=a3\nadd a4, a2, a3\nebreak" );
        ( "autoinc_store",
          measure vex "autoinc"
            "li a1, 0x300\nli a2, 77\n.isax AI_SETUP rs1=a1, imm=0\n.isax AI_SW rs2=a2\n.isax AI_SW rs2=a2\nebreak" );
        ( "sparkle_orca",
          measure Scaiev.Datasheet.orca "sparkle"
            "li a0, 3\nli a1, 4\n.isax ALZ_X rs1=a0, rs2=a1, rd=a2\n.isax ALZ_Y rs1=a0, rs2=a1, rd=a3\nebreak" );
      ]
  in
  let show l = List.map (fun (name, (cycles, instret)) -> Printf.sprintf "%s %d/%d" name cycles instret) l in
  Alcotest.(check (list string))
    "(cycles, instret)"
    (show (List.map (fun (name, c, i) -> (name, (c, i))) timing_golden))
    (show measured)

(* ---- always-blocks through every engine ---- *)

(* an always-block that stores to MEM once a custom register is armed *)
let armed_store_src =
  {|import "RV32I.core_desc"

InstructionSet X_ARMST extends RV32I {
  architectural_state {
    register unsigned<32> ARMED;
  }
  instructions {
    ARM {
      encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: 5'b00000 :: 7'b0001011;
      behavior: {
        ARMED = X[rs1];
      }
    }
  }
  always {
    store_when_armed {
      if (ARMED != 0) {
        MEM[1027:1024] = (unsigned<32>)0x1234;
      }
    }
  }
}
|}

let test_always_block_memory_write () =
  let tu = Coredsl.compile ~file:"armst.core_desc" ~target:"X_ARMST" armed_store_src in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let words =
    Riscv.Asm.assemble ~custom:(Riscv.Machine.isax_encoder tu)
      "li a0, 1\n.isax ARM rs1=a0\nnop\nnop\nnop\nnop\nnop\nnop\nebreak"
  in
  let stored st = Bitvec.to_int (Coredsl.Interp.read_mem st "MEM" 0x400 4) in
  let m = Riscv.Machine.of_compiled c in
  Riscv.Machine.load_program m words;
  ignore (Riscv.Machine.run m);
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  ignore (Riscv.Pipeline.run p);
  let rl = Riscv.Rtl_loop.create c in
  Riscv.Rtl_loop.load_program rl words;
  ignore (Riscv.Rtl_loop.run rl);
  check_int "cost model" 0x1234 (stored m.Riscv.Machine.st);
  check_int "pipeline" 0x1234 (stored p.Riscv.Pipeline.st);
  check_int "rtl-loop" 0x1234 (stored rl.Riscv.Rtl_loop.st)

(* ---- pipeline profiling (the Figure-9 observability contract) ---- *)

let test_profile_stage_coverage () =
  (* every Figure-9 stage appears exactly once per compiled functionality,
     for instructions and always-blocks alike *)
  List.iter
    (fun isax ->
      let tu = Isax.Registry.compile_by_name isax in
      let obs = Obs.create ~name:"compile" () in
      let c =
        Longnail.Flow.compile
          ~request:(Longnail.Flow.Request.make ~obs ())
          Scaiev.Datasheet.vexriscv tu
      in
      Obs.finish obs;
      Obs.validate (Obs.root obs);
      let func_spans =
        List.filter
          (fun sp -> Obs.generic_name sp.Obs.sp_name = "func:*")
          (Obs.all_spans (Obs.root obs))
      in
      check_int (isax ^ " one span per functionality") (List.length c.Longnail.Flow.funcs)
        (List.length func_spans);
      List.iter
        (fun fsp ->
          List.iter
            (fun stage ->
              check_int
                (Printf.sprintf "%s/%s has one %s stage" isax fsp.Obs.sp_name stage)
                1
                (List.length (Obs.find_spans fsp stage)))
            Longnail.Flow.stage_names)
        func_spans)
    [ "dotprod"; "zol" ]

let test_profile_optimize_monotonic () =
  (* optimization passes only ever shrink the CDFG: op counts are
     monotonically non-increasing across the optimize pipeline, except for
     lower_constant_shifts, which is a lowering (a constant shift becomes
     a handful of free wiring ops) rather than a reduction *)
  List.iter
    (fun isax ->
      let tu = Isax.Registry.compile_by_name isax in
      let obs = Obs.create ~name:"compile" () in
      ignore
        (Longnail.Flow.compile
           ~request:(Longnail.Flow.Request.make ~obs ())
           Scaiev.Datasheet.vexriscv tu);
      let pass_spans =
        List.filter
          (fun sp -> Obs.generic_name sp.Obs.sp_name = "pass:*")
          (Obs.all_spans (Obs.root obs))
      in
      check_bool (isax ^ " recorded pass spans") true (pass_spans <> []);
      List.iter
        (fun sp ->
          let before = Option.get (Obs.get_int sp "ops_before") in
          let after = Option.get (Obs.get_int sp "ops_after") in
          if sp.Obs.sp_name <> "pass:lower_constant_shifts" then
            check_bool
              (Printf.sprintf "%s %s non-increasing (%d -> %d)" isax sp.Obs.sp_name before
                 after)
              true (after <= before))
        pass_spans;
      (* and the whole optimize stage shrinks (or keeps) the graph *)
      List.iter
        (fun osp ->
          let before = Option.get (Obs.get_int osp "ops_before") in
          let after = Option.get (Obs.get_int osp "ops_after") in
          check_bool
            (Printf.sprintf "%s optimize total %d -> %d" isax before after)
            true (after <= before))
        (Obs.find_spans (Obs.root obs) "optimize"))
    [ "dotprod"; "sparkle"; "autoinc+zol" ]

let test_profile_optimize_stats_api () =
  (* the stats-returning entry point agrees with graph reality *)
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let dotp = Option.get (Coredsl.Tast.find_tinstr tu "DOTP") in
  let hg = Ir.Hlir.lower_instruction tu dotp in
  let lg = Ir.Lil.of_hlir tu.elab ~fields:dotp.fields hg in
  let g', stats = Ir.Passes.optimize_with_stats lg in
  check_bool "trace non-empty" true (stats <> []);
  check_int "first pass sees the input graph" (Ir.Passes.op_count lg)
    (List.hd stats).Ir.Passes.ps_ops_before;
  check_int "last pass produced the output graph" (Ir.Passes.op_count g')
    (List.nth stats (List.length stats - 1)).Ir.Passes.ps_ops_after;
  (* consecutive stats chain: each pass starts from the previous result *)
  ignore
    (List.fold_left
       (fun prev (st : Ir.Passes.pass_stat) ->
         (match prev with
         | Some p -> check_int ("chained " ^ st.ps_pass) p st.ps_ops_before
         | None -> ());
         Some st.ps_ops_after)
       None stats)

(* ---- diagnostics provenance through the full pipeline ---- *)

let test_infeasible_error_cites_source () =
  (* the PC write sits behind a memory load and a multiply chain; with a
     tight cycle time it cannot reach WrPC's native window on ORCA. The
     E0401 diagnostic must cite the CoreDSL span of the culprit operation,
     which has to survive hlir -> lil -> optimize -> schedule. *)
  let src =
    {|import "RV32I.core_desc"
InstructionSet T extends RV32I {
  instructions {
    LONGJMP {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b111 :: 5'b00000 :: 7'b1111011;
      behavior: {
        unsigned<32> a = MEM[X[rs1]+3:X[rs1]];
        unsigned<32> b = MEM2;
        PC = (unsigned<32>)(a * a * b * b);
      }
    }
  }
  architectural_state { register unsigned<32> MEM2; }
}
|}
  in
  let tu = Coredsl.compile ~file:"longjmp.core_desc" ~target:"T" src in
  try
    ignore
      (Longnail.Flow.compile
         ~request:
           (Longnail.Flow.Request.make
              ~knobs:
                (Longnail.Flow.knobs ~cycle_time:0.9 ~delay:Longnail.Delay_model.Physical ())
              ())
         Scaiev.Datasheet.orca tu);
    Alcotest.fail "expected infeasible schedule"
  with Diag.Fatal (d :: _) ->
    Alcotest.(check string) "stable code" "E0401" d.Diag.code;
    (match d.Diag.span with
    | None -> Alcotest.fail "infeasibility diagnostic lost its source span"
    | Some sp ->
        check_bool "span valid" true (Diag.span_is_valid sp);
        Alcotest.(check string) "cites the CoreDSL file" "longjmp.core_desc" sp.Diag.sp_file;
        (* the culprit is an interface write inside the behavior block
           (lines 7-9: the load, the register read, the PC assignment) *)
        check_bool
          (Printf.sprintf "line %d inside the behavior block" sp.Diag.sp_line)
          true
          (sp.Diag.sp_line >= 7 && sp.Diag.sp_line <= 9));
    (* the note explains the window violation in stage terms *)
    check_bool "note explains the stage window" true
      (List.exists
         (fun n ->
           let sub = "cannot start before stage" in
           let nl = String.length sub in
           let rec go i =
             i + nl <= String.length n && (String.sub n i nl = sub || go (i + 1))
           in
           go 0)
         d.Diag.notes)

(* random base-ISA programs: the pipeline must match the native ISS *)
let prop_pipeline_matches_iss =
  QCheck.Test.make ~name:"pipeline matches ISS on random ALU programs" ~count:30 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rnd n = Random.State.int rng n in
      let lines =
        List.init 20 (fun _ ->
            match rnd 5 with
            | 0 -> Printf.sprintf "addi x%d, x%d, %d" (1 + rnd 15) (rnd 16) (rnd 2048 - 1024)
            | 1 -> Printf.sprintf "add x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16)
            | 2 -> Printf.sprintf "sub x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16)
            | 3 -> Printf.sprintf "xor x%d, x%d, x%d" (1 + rnd 15) (rnd 16) (rnd 16)
            | _ -> Printf.sprintf "slli x%d, x%d, %d" (1 + rnd 15) (rnd 16) (rnd 32))
      in
      let prog = String.concat "\n" lines in
      let words = Riscv.Asm.assemble prog in
      let iss = Riscv.Iss.create () in
      List.iteri (fun i w -> Riscv.Iss.write_word iss (4 * i) w) words;
      List.iter (fun _ -> Riscv.Iss.step iss) words;
      let p = Riscv.Pipeline.create (Lazy.force rv32i_compiled) in
      Riscv.Pipeline.load_program p (words @ [ 0x00100073 (* ebreak *) ]);
      ignore (Riscv.Pipeline.run p);
      List.for_all
        (fun r -> Riscv.Iss.read_reg iss r = Riscv.Pipeline.read_gpr p r)
        (List.init 32 Fun.id))

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_pipeline_matches_iss ]

let () =
  Alcotest.run "pipeline"
    [
      ( "base",
        [
          Alcotest.test_case "alu program" `Quick test_base_alu_program;
          Alcotest.test_case "forwarding chain" `Quick test_base_forwarding_chain;
          Alcotest.test_case "loop with branches" `Quick test_base_loop_program;
          Alcotest.test_case "memory" `Quick test_base_memory_program;
        ] );
      ( "isax",
        [
          Alcotest.test_case "dotprod in pipeline" `Quick test_isax_dotprod_in_pipeline;
          Alcotest.test_case "back-to-back in one module" `Quick test_isax_back_to_back;
          Alcotest.test_case "deep sqrt module" `Quick test_isax_sqrt_deep_module;
          Alcotest.test_case "autoinc memory" `Quick test_isax_autoinc_memory;
          Alcotest.test_case "zol zero overhead" `Quick test_isax_zol_zero_overhead;
          Alcotest.test_case "matches cost-model machine" `Slow test_pipeline_matches_machine;
          Alcotest.test_case "other cores" `Quick test_pipeline_other_cores;
          Alcotest.test_case "mriscv through all engines" `Slow test_mriscv_case_study_engines;
          Alcotest.test_case "sparkle on ORCA" `Quick test_pipeline_sparkle_orca;
          Alcotest.test_case "write arbitration order" `Quick test_pipeline_arbitration;
          Alcotest.test_case "decoupled overtaking" `Quick test_decoupled_overtaking;
          Alcotest.test_case "decoupled dependent stalls" `Quick test_decoupled_dependent_stalls;
          Alcotest.test_case "pinned timing" `Quick test_pinned_timing;
          Alcotest.test_case "always-block memory write" `Quick test_always_block_memory_write;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "infeasible error cites source" `Quick
            test_infeasible_error_cites_source;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "stage coverage" `Quick test_profile_stage_coverage;
          Alcotest.test_case "optimize monotonic" `Quick test_profile_optimize_monotonic;
          Alcotest.test_case "optimize stats api" `Quick test_profile_optimize_stats_api;
        ] );
      ("properties", qcheck_cases);
    ]
