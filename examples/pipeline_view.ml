(* Watch the extended core execute: a cycle-by-cycle stage diagram of the
   structural pipeline running a zero-overhead loop, with the ZOL
   always-block RTL redirecting the fetch and the setup instruction's
   custom-register writes happening in their scheduled stage.

   Run with:  dune exec examples/pipeline_view.exe *)

let () =
  let tu = Isax.Registry.compile_by_name "zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let enc = Riscv.Asm.encoder tu in
  let words =
    Riscv.Asm.assemble ~custom:enc
      "li a0, 0\n.isax setup_zol uimmL=2, uimmS=6\nbody:\naddi a0, a0, 1\naddi a0, a0, 2\nebreak"
  in
  let p = Riscv.Pipeline.create c in
  Riscv.Pipeline.load_program p words;
  let nstages = Array.length p.Riscv.Pipeline.stages - 1 in
  Printf.printf "structural pipeline, %d stages; ZOL body of 2 instructions, 3 iterations\n\n"
    nstages;
  Printf.printf "%5s  %-10s" "cycle" "fetch";
  for s = 1 to nstages do
    Printf.printf " | %-9s" (Printf.sprintf "stage %d" s)
  done;
  Printf.printf " | COUNT\n%s\n" (String.make (18 + (12 * nstages) + 8) '-');
  let running = ref true in
  while !running do
    let fetch = Printf.sprintf "0x%02x" p.Riscv.Pipeline.fetch_pc in
    running := Riscv.Pipeline.step p;
    if !running then begin
      Printf.printf "%5d  %-10s" p.Riscv.Pipeline.cycles fetch;
      for s = 1 to nstages do
        Printf.printf " | %-9s"
          (match p.Riscv.Pipeline.stages.(s) with
          | Some sl -> (Riscv.Pipeline.slot_instr sl).Coredsl.Tast.ti_name
          | None -> ".")
      done;
      Printf.printf " | %s\n"
        (Bitvec.to_string (Coredsl.Interp.read_reg p.Riscv.Pipeline.st "COUNT"))
    end
  done;
  Printf.printf "\nresult a0 = %d (3 iterations x (1+2))\n" (Riscv.Pipeline.read_gpr p 10);
  assert (Riscv.Pipeline.read_gpr p 10 = 9)
