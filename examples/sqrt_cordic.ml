(* The Figure 4 ISAX: a long-running fix-point square root, in its
   tightly-coupled and decoupled (spawn-block) variants.

   Demonstrates:
   - the same behavior scheduled beyond the pipeline length on every core,
   - execution-mode selection (tightly-coupled vs decoupled vs FSM),
   - the decoupled variant letting independent instructions overtake
     while dependent ones stall on the scoreboard,
   - ASIC cost of both variants (Table 4 rows).

   Run with:  dune exec examples/sqrt_cordic.exe *)

let () =
  print_endline "CORDIC-style sqrt: 32 shift-subtract iterations, scheduled per core:\n";
  Printf.printf "%-10s | %-16s %-7s | %-16s %-7s\n" "core" "sqrt_tightly" "stages" "sqrt_decoupled"
    "stages";
  List.iter
    (fun core ->
      let stat name instr =
        let c = Longnail.Flow.compile core (Isax.Registry.compile_by_name name) in
        let f = Option.get (Longnail.Flow.find_func c instr) in
        (Scaiev.Config.mode_to_string f.cf_mode, f.cf_hw.Longnail.Hwgen.max_stage)
      in
      let mt, st = stat "sqrt_tightly" "SQRT" in
      let md, sd = stat "sqrt_decoupled" "SQRT_D" in
      Printf.printf "%-10s | %-16s %-7d | %-16s %-7d\n" core.Scaiev.Datasheet.core_name mt st md sd)
    (Scaiev.Core_registry.datasheets ());

  print_endline "\nASIC cost (area overhead / frequency delta):\n";
  Printf.printf "%-10s | %-22s | %-22s\n" "core" "sqrt_tightly" "sqrt_decoupled";
  List.iter
    (fun core ->
      let cost name =
        let c = Longnail.Flow.compile core (Isax.Registry.compile_by_name name) in
        let r = Asic.Flow.run ~isax_name:name c in
        Printf.sprintf "+%.0f%% / %+.0f%%" r.area_overhead_pct r.freq_delta_pct
      in
      Printf.printf "%-10s | %-22s | %-22s\n" core.Scaiev.Datasheet.core_name
        (cost "sqrt_tightly") (cost "sqrt_decoupled"))
    (Scaiev.Core_registry.datasheets ());

  (* decoupled execution: instructions overtake the sqrt unless they
     depend on its result *)
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let enc = Riscv.Asm.encoder tu in
  let run prog =
    let m = Riscv.Machine.of_compiled c in
    Riscv.Machine.load_program m (Riscv.Asm.assemble ~custom:enc prog);
    let cycles = Riscv.Machine.run m in
    (cycles, m)
  in
  let independent =
    {|
  li a1, 1764
  .isax SQRT_D rs1=a1, rd=a2
  li t0, 1        # these do not touch a2: they overtake the sqrt
  li t1, 2
  li t2, 3
  li t3, 4
  ebreak
|}
  in
  let dependent =
    {|
  li a1, 1764
  .isax SQRT_D rs1=a1, rd=a2
  add t0, a2, a2  # reads a2: stalls until the decoupled result commits
  li t1, 2
  li t2, 3
  li t3, 4
  ebreak
|}
  in
  let ci, mi = run independent in
  let cd, md = run dependent in
  Printf.printf "\ndecoupled execution on the VexRiscv model (sqrt of 1764 Q16.16):\n";
  Printf.printf "  independent followers: %3d cycles (overtake the sqrt)\n" ci;
  Printf.printf "  dependent follower:    %3d cycles (scoreboard stall)\n" cd;
  Printf.printf "  sqrt result: %d (= 42 << 16: %b)\n"
    (Riscv.Machine.read_gpr mi 12)
    (Riscv.Machine.read_gpr md 12 = 42 * 65536);
  assert (cd > ci)
