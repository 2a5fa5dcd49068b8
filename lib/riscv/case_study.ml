(* The Section 5.5 case study: summing an n-element integer array held in
   memory, on the VexRiscv model, with and without the autoinc + zol
   ISAXes. The paper reports 18n + 50 cycles for the baseline and
   11n + 50 with the ISAXes (>60% speedup at 16% area). *)

(* Both programs use a realistic call prologue/epilogue so the constant
   term lands near the paper's ~50 cycles. *)
let baseline_program n =
  Printf.sprintf
    {|
  jal ra, sum
  ebreak
sum:
  addi sp, sp, -8
  sw s0, 0(sp)
  sw s1, 4(sp)
  li a0, 0          # sum accumulator
  li a1, 0x1000     # array base
  li a2, %d         # element count
loop:
  lw a4, 0(a1)
  add a0, a0, a4
  addi a1, a1, 4
  addi a2, a2, -1
  bnez a2, loop
  lw s1, 4(sp)
  lw s0, 0(sp)
  addi sp, sp, 8
  ret
|}
    n

(* With autoinc + zol: the loop body shrinks to an auto-incrementing load
   plus the accumulate, and the loop control runs in the ZOL always-block
   with zero overhead. uimmS counts half-words from setup_zol to the end
   of the loop body (here: 3 instructions ahead = 6 half-words). *)
let isax_program n =
  Printf.sprintf
    {|
  jal ra, sum
  ebreak
sum:
  addi sp, sp, -8
  sw s0, 0(sp)
  li a0, 0
  li a1, 0x1000
  .isax AI_SETUP rs1=a1, imm=0
  li a2, %d
  .isax setup_zol uimmL=%d, uimmS=6
loop:
  .isax AI_LW rd=a4
  add a0, a0, a4
  lw s0, 0(sp)
  addi sp, sp, 8
  ret
|}
    n n

type run_result = { cycles : int; checksum : int; instret : int }

let fill_array m n =
  for i = 0 to n - 1 do
    Machine.store_word m (0x1000 + (4 * i)) (i + 1)
  done

let expected_sum n = n * (n + 1) / 2

let run_baseline ~n : run_result =
  let tu = Coredsl.compile_rv32i () in
  let m = Machine.create ~timing:Machine.vexriscv_timing tu in
  Machine.write_gpr m 2 0x8000 (* stack pointer *);
  let words = Asm.assemble (baseline_program n) in
  Machine.load_program m words;
  fill_array m n;
  let cycles = Machine.run m in
  { cycles; checksum = Machine.read_gpr m 10; instret = m.Machine.instret }

(* [compiled] must be a Longnail compile of the autoinc+zol unit for the
   core whose timing should be modelled. *)
let run_isax ~n (compiled : Longnail.Flow.compiled) : run_result =
  let m = Machine.of_compiled compiled in
  Machine.write_gpr m 2 0x8000;
  let enc = Asm.encoder compiled.Longnail.Flow.unit_ in
  let words = Asm.assemble ~custom:enc (isax_program n) in
  Machine.load_program m words;
  fill_array m n;
  let cycles = Machine.run m in
  { cycles; checksum = Machine.read_gpr m 10; instret = m.Machine.instret }

(* Fit cycles = a*n + b through two measurement points. *)
let fit (n1, c1) (n2, c2) =
  let a = (c2 - c1) / (n2 - n1) in
  (a, c1 - (a * n1))
