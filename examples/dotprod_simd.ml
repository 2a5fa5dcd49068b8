(* The Figure 1 ISAX: a 4x8-bit SIMD dot product.

   Compiles the dotprod ISAX for all four host cores, co-simulates the
   generated hardware against the reference interpreter, and then runs a
   complete audio-style workload (dot product of two byte arrays) on the
   cycle-level VexRiscv model, with and without the custom instruction.

   Run with:  dune exec examples/dotprod_simd.exe *)

let u32 = Bitvec.unsigned_ty 32
let bv = Bitvec.of_int u32

let () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  print_endline "Figure 1 ISAX (4x8-bit dot product), compiled for every host core:\n";
  Printf.printf "%-10s %-14s %-10s %-12s %-10s\n" "core" "mode" "stages" "area" "freq";
  (* one request drives the whole batch: the four cores share the
     session's IR artifacts and fan out over worker domains *)
  let request =
    Longnail.Flow.Request.make ~session:(Longnail.Flow.create_session ())
      ~jobs:(min 4 (Par.available_workers ())) ()
  in
  let compiled =
    Longnail.Flow.compile_many ~request
      (List.map (fun core -> (core, tu)) (Scaiev.Core_registry.datasheets ()))
  in
  List.iter
    (fun (c : Longnail.Flow.compiled) ->
      let f = Option.get (Longnail.Flow.find_func c "DOTP") in
      let r = Asic.Flow.run ~isax_name:"dotprod" c in
      Printf.printf "%-10s %-14s %-10d +%-10.0f%% %+.0f%%\n" c.core.Scaiev.Datasheet.core_name
        (Scaiev.Config.mode_to_string f.cf_mode)
        f.cf_hw.Longnail.Hwgen.max_stage r.area_overhead_pct r.freq_delta_pct)
    compiled;

  (* co-simulate the generated module against the interpreter *)
  let core = Scaiev.Datasheet.vexriscv in
  let c =
    List.find
      (fun (c : Longnail.Flow.compiled) ->
        c.core.Scaiev.Datasheet.core_name = core.Scaiev.Datasheet.core_name)
      compiled
  in
  let f = Option.get (Longnail.Flow.find_func c "DOTP") in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "DOTP") in
  let a = 0x04030201 and b = 0x281E140A in
  let word = Coredsl.Interp.encode ti [ ("rs1", bv 1); ("rs2", bv 2); ("rd", bv 3) ] in
  let st = Coredsl.Interp.create tu in
  Coredsl.Interp.write_regfile st "X" 1 (bv a);
  Coredsl.Interp.write_regfile st "X" 2 (bv b);
  Coredsl.Interp.exec_instr st ti ~instr_word:word;
  let resp =
    Longnail.Cosim.run f
      { Longnail.Cosim.default_stimulus with instr_word = Some word; rs1 = Some (bv a); rs2 = Some (bv b) }
  in
  (match resp.rd_write with
  | Some (data, true) ->
      Printf.printf "\ndotp(%08x, %08x) = %s (interpreter: %s)\n" a b (Bitvec.to_string data)
        (Bitvec.to_string (Coredsl.Interp.read_regfile st "X" 3))
  | _ -> assert false);

  (* a full workload: dot product over byte arrays, 4 lanes per DOTP *)
  let n_words = 64 in
  let prog_isax =
    Printf.sprintf
      {|
  li a0, 0          # accumulator
  li a1, 0x1000     # array A
  li a2, 0x2000     # array B
  li a3, %d         # word count
loop:
  lw a4, 0(a1)
  lw a5, 0(a2)
  .isax DOTP rs1=a4, rs2=a5, rd=a6
  add a0, a0, a6
  addi a1, a1, 4
  addi a2, a2, 4
  addi a3, a3, -1
  bnez a3, loop
  ebreak
|}
      n_words
  in
  let prog_base =
    (* scalar version: unpack bytes with shifts and multiply-accumulate *)
    Printf.sprintf
      {|
  li a0, 0
  li a1, 0x1000
  li a2, 0x2000
  li a3, %d
loop:
  li t2, 4
byte:
  lb t0, 0(a1)
  lb t1, 0(a2)
  # multiply t0*t1 via shift-add (RV32I has no MUL)
  li t3, 0
  li t4, 8
mulbit:
  andi t5, t1, 1
  beqz t5, skip
  add t3, t3, t0
skip:
  slli t0, t0, 1
  srai t1, t1, 1
  addi t4, t4, -1
  bnez t4, mulbit
  add a0, a0, t3
  addi a1, a1, 1
  addi a2, a2, 1
  addi t2, t2, -1
  bnez t2, byte
  addi a3, a3, -1
  bnez a3, loop
  ebreak
|}
      n_words
  in
  let fill m =
    for i = 0 to (4 * n_words) - 1 do
      Coredsl.Interp.write_mem m.Riscv.Machine.st "MEM" (0x1000 + i) 1 (Bitvec.of_int (Bitvec.unsigned_ty 8) ((i mod 7) + 1));
      Coredsl.Interp.write_mem m.Riscv.Machine.st "MEM" (0x2000 + i) 1 (Bitvec.of_int (Bitvec.unsigned_ty 8) ((i mod 5) + 1))
    done
  in
  let run_with prog machine encoder =
    let words = Riscv.Asm.assemble ?custom:encoder prog in
    Riscv.Machine.load_program machine words;
    fill machine;
    let cycles = Riscv.Machine.run ~fuel:10_000_000 machine in
    (cycles, Riscv.Machine.read_gpr machine 10)
  in
  let m_isax = Riscv.Machine.of_compiled c in
  let isax_cycles, isax_sum = run_with prog_isax m_isax (Some (Riscv.Asm.encoder tu)) in
  let m_base = Riscv.Machine.create ~timing:Riscv.Machine.vexriscv_timing (Coredsl.compile_rv32i ()) in
  let base_cycles, base_sum = run_with prog_base m_base None in
  Printf.printf "\n%d-element byte dot product on the VexRiscv model:\n" (4 * n_words);
  Printf.printf "  scalar RV32I (shift-add multiply): %7d cycles (sum %d)\n" base_cycles base_sum;
  Printf.printf "  with the DOTP ISAX:                %7d cycles (sum %d)\n" isax_cycles isax_sum;
  Printf.printf "  speedup: %.1fx\n" (float_of_int base_cycles /. float_of_int isax_cycles);
  assert (base_sum = isax_sum)
