(* The Figure 3 ISAX: zero-overhead loops via custom registers and an
   always-block.

   Shows the generated SCAIE-V configuration (Figure 8), co-simulates one
   evaluation of the always-block, and measures the loop overhead saved on
   the cycle-level VexRiscv model.

   Run with:  dune exec examples/zol_loop.exe *)

let u32 = Bitvec.unsigned_ty 32
let bv = Bitvec.of_int u32

let () =
  let tu = Isax.Registry.compile_by_name "zol" in
  let core = Scaiev.Datasheet.vexriscv in
  let c = Longnail.Flow.compile core tu in

  print_endline "SCAIE-V configuration generated for the ZOL ISAX (cf. Figure 8):\n";
  print_string c.config_yaml;

  (* one tick of the always-block in the generated RTL: at END_PC with a
     non-zero counter it redirects the PC and decrements the counter *)
  let f = Option.get (Longnail.Flow.find_func c "zol") in
  let resp =
    Longnail.Cosim.run f
      {
        Longnail.Cosim.default_stimulus with
        pc = Some (bv 0x10A);
        custreg =
          (fun reg _ ->
            match reg with
            | "COUNT" -> bv 3
            | "START_PC" -> bv 0x104
            | "END_PC" -> bv 0x10A
            | _ -> bv 0);
      }
  in
  print_endline "\none always-block evaluation at PC = END_PC with COUNT = 3:";
  (match resp.pc_write with
  | Some (pc, true) -> Printf.printf "  WrPC    <- %s (valid)\n" (Bitvec.to_hex_string pc)
  | _ -> print_endline "  no PC redirect!");
  List.iter
    (fun (w : Longnail.Cosim.custreg_write) ->
      if w.cw_valid then
        Printf.printf "  Wr%-6s <- %s (valid)\n" w.cw_reg (Bitvec.to_hex_string w.cw_data))
    resp.custreg_writes;

  (* measure the saved loop overhead: the same 3-instruction body run with
     a conventional counted loop vs. under ZOL control *)
  let n = 100 in
  let conventional =
    Printf.sprintf
      {|
  li a0, 0
  li a2, %d
loop:
  addi a0, a0, 1
  addi a0, a0, 2
  addi a0, a0, 3
  addi a2, a2, -1
  bnez a2, loop
  ebreak
|}
      n
  in
  let with_zol =
    (* Figure 3 semantics: the body falls through once, then COUNT
       redirects re-enter it; uimmL = n-1 gives n total iterations *)
    Printf.sprintf
      {|
  li a0, 0
  .isax setup_zol uimmL=%d, uimmS=8
body:
  addi a0, a0, 1
  addi a0, a0, 2
  addi a0, a0, 3
  ebreak
|}
      (n - 1)
  in
  let run prog isax =
    let m =
      if isax then Riscv.Machine.of_compiled c
      else Riscv.Machine.create ~timing:Riscv.Machine.vexriscv_timing (Coredsl.compile_rv32i ())
    in
    let enc = if isax then Some (Riscv.Asm.encoder tu) else None in
    Riscv.Machine.load_program m (Riscv.Asm.assemble ?custom:enc prog);
    let cycles = Riscv.Machine.run m in
    (cycles, Riscv.Machine.read_gpr m 10)
  in
  let c1, s1 = run conventional false in
  let c2, s2 = run with_zol true in
  assert (s1 = s2);
  Printf.printf "\n%d iterations of a 3-instruction body (result %d):\n" n s1;
  Printf.printf "  conventional loop (addi + bnez): %5d cycles\n" c1;
  Printf.printf "  zero-overhead loop:              %5d cycles\n" c2;
  Printf.printf "  loop-control overhead removed:   %5d cycles (%.0f%%)\n" (c1 - c2)
    (100.0 *. float_of_int (c1 - c2) /. float_of_int c1)
