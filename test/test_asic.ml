(* Tests for the ASIC flow model: technology mapping, static timing
   analysis, and the Table 4 invariants the evaluation relies on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let u w = Bitvec.unsigned_ty w
let bv w v = Bitvec.of_int (u w) v

let adder_module w =
  {
    Rtl.Netlist.mod_name = "adder";
    inputs =
      [
        { Rtl.Netlist.port_name = "a"; port_width = w; port_signal = "a" };
        { port_name = "b"; port_width = w; port_signal = "b" };
      ];
    outputs = [ { port_name = "o"; port_width = w; port_signal = "o" } ];
    nodes = [ Rtl.Netlist.Comb { out = "o"; width = w; op = "comb.add"; attrs = []; inputs = [ "a"; "b" ] } ];
  }

let test_synth_area_scales_with_width () =
  let r8 = Asic.Synth.synthesize (adder_module 8) in
  let r32 = Asic.Synth.synthesize (adder_module 32) in
  check_bool "wider adder is bigger" true (r32.Asic.Synth.area_um2 > r8.Asic.Synth.area_um2);
  check_bool "area positive" true (r8.Asic.Synth.area_um2 > 0.0)

let test_sta_chain () =
  (* two chained adders have a longer critical path than one *)
  let chain =
    {
      Rtl.Netlist.mod_name = "chain";
      inputs = [ { Rtl.Netlist.port_name = "a"; port_width = 32; port_signal = "a" } ];
      outputs = [ { port_name = "o"; port_width = 32; port_signal = "o" } ];
      nodes =
        [
          Rtl.Netlist.Comb { out = "m"; width = 32; op = "comb.add"; attrs = []; inputs = [ "a"; "a" ] };
          Rtl.Netlist.Comb { out = "o"; width = 32; op = "comb.add"; attrs = []; inputs = [ "m"; "a" ] };
        ];
    }
  in
  let one = Asic.Synth.synthesize (adder_module 32) in
  let two = Asic.Synth.synthesize chain in
  check_bool "chained path longer" true
    (two.Asic.Synth.critical_path_ns > one.Asic.Synth.critical_path_ns)

let test_sta_registers_break_paths () =
  (* inserting a register between the adders restores the single-adder path *)
  let piped =
    {
      Rtl.Netlist.mod_name = "piped";
      inputs = [ { Rtl.Netlist.port_name = "a"; port_width = 32; port_signal = "a" } ];
      outputs = [ { port_name = "o"; port_width = 32; port_signal = "o" } ];
      nodes =
        [
          Rtl.Netlist.Comb { out = "m"; width = 32; op = "comb.add"; attrs = []; inputs = [ "a"; "a" ] };
          Rtl.Netlist.Reg { out = "r"; width = 32; next = "m"; enable = None; init = None };
          Rtl.Netlist.Comb { out = "o"; width = 32; op = "comb.add"; attrs = []; inputs = [ "r"; "a" ] };
        ];
    }
  in
  let one = Asic.Synth.synthesize (adder_module 32) in
  let p = Asic.Synth.synthesize piped in
  Alcotest.(check (float 0.05)) "path equals single adder" one.Asic.Synth.critical_path_ns
    p.Asic.Synth.critical_path_ns

let test_rom_area () =
  let rom =
    {
      Rtl.Netlist.mod_name = "rom";
      inputs = [ { Rtl.Netlist.port_name = "i"; port_width = 8; port_signal = "i" } ];
      outputs = [ { port_name = "o"; port_width = 8; port_signal = "o" } ];
      nodes =
        [ Rtl.Netlist.Rom { out = "o"; width = 8; table = Array.make 256 (bv 8 0); index = "i" } ];
    }
  in
  let r = Asic.Synth.synthesize rom in
  check_bool "rom area accounted" true (r.Asic.Synth.rom_area_um2 > 0.0)

(* ---- Table 4 level invariants ---- *)

let run name core =
  Asic.Flow.run ~isax_name:name (Longnail.Flow.compile core (Isax.Registry.compile_by_name name))

let test_overheads_positive () =
  List.iter
    (fun core ->
      List.iter
        (fun (e : Isax.Registry.entry) ->
          let r = run e.name core in
          check_bool
            (Printf.sprintf "%s/%s area overhead positive" e.name core.Scaiev.Datasheet.core_name)
            true
            (r.Asic.Flow.area_overhead_pct > 0.0);
          check_bool "freq sane" true
            (r.Asic.Flow.achieved_freq_mhz > 0.3 *. core.Scaiev.Datasheet.base_freq_mhz))
        Isax.Registry.all)
    [ Scaiev.Datasheet.vexriscv; Scaiev.Datasheet.piccolo ]

let test_sqrt_is_largest () =
  let core = Scaiev.Datasheet.vexriscv in
  let sqrt_t = run "sqrt_tightly" core in
  List.iter
    (fun small ->
      let r = run small core in
      check_bool
        (Printf.sprintf "sqrt bigger than %s" small)
        true
        (sqrt_t.Asic.Flow.area_overhead_pct > r.Asic.Flow.area_overhead_pct))
    [ "autoinc"; "dotprod"; "ijmp"; "sbox"; "zol" ]

let test_orca_forwarding_regressions () =
  (* the paper's Section 5.4 narrative: dotprod and sparkle regress on
     ORCA (forwarding path), but not on VexRiscv *)
  let dot_orca = run "dotprod" Scaiev.Datasheet.orca in
  let dot_vex = run "dotprod" Scaiev.Datasheet.vexriscv in
  check_bool "dotprod orca regresses" true (dot_orca.Asic.Flow.freq_delta_pct < -5.0);
  check_bool "dotprod vex does not" true (dot_vex.Asic.Flow.freq_delta_pct > -5.0);
  let sp_orca = run "sparkle" Scaiev.Datasheet.orca in
  check_bool "sparkle orca regresses" true (sp_orca.Asic.Flow.freq_delta_pct < -10.0)

let test_decoupled_recovers_frequency () =
  (* sqrt_decoupled avoids the tightly-coupled stall path: on ORCA the
     decoupled variant is much faster than the tightly-coupled one *)
  let t = run "sqrt_tightly" Scaiev.Datasheet.orca in
  let d = run "sqrt_decoupled" Scaiev.Datasheet.orca in
  check_bool
    (Printf.sprintf "decoupled %.1f%% vs tightly %.1f%%" d.Asic.Flow.freq_delta_pct
       t.Asic.Flow.freq_delta_pct)
    true
    (d.Asic.Flow.freq_delta_pct > t.Asic.Flow.freq_delta_pct +. 10.0)

let test_hazard_handling_ablation () =
  (* Table 4's "without data-hazard handling" row: less adapter area *)
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let core = Scaiev.Datasheet.orca in
  let with_h = Asic.Flow.run ~isax_name:"sqrt_decoupled" (Longnail.Flow.compile core tu) in
  let without =
    Asic.Flow.run ~isax_name:"sqrt_decoupled"
      (Longnail.Flow.compile
         ~request:
           (Longnail.Flow.Request.make ~knobs:(Longnail.Flow.knobs ~hazard_handling:false ()) ())
         core tu)
  in
  check_bool "hazard handling costs area" true
    (without.Asic.Flow.adapter_area_um2 < with_h.Asic.Flow.adapter_area_um2)

let test_determinism () =
  let a = run "dotprod" Scaiev.Datasheet.vexriscv in
  let b = run "dotprod" Scaiev.Datasheet.vexriscv in
  Alcotest.(check (float 1e-9)) "deterministic area" a.Asic.Flow.total_area_um2 b.Asic.Flow.total_area_um2;
  Alcotest.(check (float 1e-9)) "deterministic freq" a.Asic.Flow.achieved_freq_mhz b.Asic.Flow.achieved_freq_mhz

let test_report_generation () =
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv (Isax.Registry.compile_by_name "zol") in
  let md = Asic.Report.generate ~isax_name:"zol" c in
  let contains needle =
    let nl = String.length needle and hl = String.length md in
    let rec go i = i + nl <= hl && (String.sub md i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "title" true (contains "# Longnail report: zol on VexRiscv");
  check_bool "functionality table" true (contains "| setup_zol | instruction |");
  check_bool "always row" true (contains "| zol | always |");
  check_bool "schedule section" true (contains "## Interface schedule");
  check_bool "asic section" true (contains "## ASIC cost");
  check_bool "config embedded" true (contains "```yaml")

let () =
  Alcotest.run "asic"
    [
      ( "synth",
        [
          Alcotest.test_case "area scales" `Quick test_synth_area_scales_with_width;
          Alcotest.test_case "sta chain" `Quick test_sta_chain;
          Alcotest.test_case "registers break paths" `Quick test_sta_registers_break_paths;
          Alcotest.test_case "rom area" `Quick test_rom_area;
        ] );
      ( "table4",
        [
          Alcotest.test_case "overheads positive" `Slow test_overheads_positive;
          Alcotest.test_case "sqrt largest" `Quick test_sqrt_is_largest;
          Alcotest.test_case "orca forwarding regressions" `Quick test_orca_forwarding_regressions;
          Alcotest.test_case "decoupled recovers freq" `Quick test_decoupled_recovers_frequency;
          Alcotest.test_case "hazard ablation" `Quick test_hazard_handling_ablation;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ("report", [ Alcotest.test_case "markdown generation" `Quick test_report_generation ]);
    ]
