(* Paper reproduction: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 2 for the experiment index). Timing
   lives in perfbench/, not here.

   Usage:
     bench/main.exe                  run every table/figure reproduction
     bench/main.exe table4           one specific target (names may repeat)

   Targets: table1 table2 table3 table4 fig5 fig6 fig7 fig8 fig9 perf
            ablation outlook dse sharing extra

   Any other argument, flags included, exits 2 with the target list. *)

let sep title =
  Printf.printf "\n%s\n== %s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* Lookups of bundled instructions/functionalities that must exist: a miss
   is an internal inconsistency, reported as a structured E0901 diagnostic
   (rendered by the top-level handler, exit 1) rather than an anonymous
   [Option.get] crash. *)
let require_tinstr (tu : Coredsl.Tast.tunit) name =
  match Coredsl.Tast.find_tinstr tu name with
  | Some ti -> ti
  | None ->
      Diag.fatalf ~code:"E0901" "internal: instruction %s is missing from unit %s" name
        tu.tu_name

let require_func (c : Longnail.Flow.compiled) name =
  match Longnail.Flow.find_func c name with
  | Some f -> f
  | None ->
      Diag.fatalf ~code:"E0901" "internal: functionality %s was not compiled for core %s" name
        c.core.Scaiev.Datasheet.core_name

(* One compilation session shared by every bench target: repeated
   (unit, core, knobs) compiles across tables replay from cache. *)
let session = Longnail.Flow.create_session ()

(* Request-building shorthand: the bench compiles under many one-off knob
   combinations, all through the shared session. *)
let mkrequest ?knobs () = Longnail.Flow.Request.make ?knobs ~session ()

(* ---- Table 1: SCAIE-V sub-interface operations ---- *)

let table1 () =
  sep "Table 1: SCAIE-V sub-interface operations (32-bit host core)";
  Format.printf "%a@." Scaiev.Iface.pp_table1 ()

(* ---- Table 2: scheduling problem hierarchy ---- *)

let table2 () =
  sep "Table 2: Longnail scheduling problem model (demonstrated instance)";
  print_endline
    "Problem          properties: linkedOperatorType, startTime; op-type: latency";
  print_endline
    "ChainingProblem  adds: startTimeInCycle; op-type: incoming/outgoingDelay";
  print_endline
    "LongnailProblem  adds op-type: earliest, latest  (SCAIE-V virtual datasheet)";
  print_endline "";
  (* demonstrate on the ADDI instance: solve and verify all three levels *)
  let tu = Coredsl.compile_rv32i () in
  let addi = require_tinstr tu "ADDI" in
  let core = Scaiev.Datasheet.vexriscv in
  let f = Longnail.Flow.compile_functionality ~request:(mkrequest ()) core tu (`Instr addi) in
  let p = f.cf_built.Longnail.Sched_build.problem in
  Sched.Problem.verify_precedence p;
  print_endline "solution constraints (Problem level):         satisfied";
  Sched.Problem.verify_chaining p;
  print_endline "solution constraints (ChainingProblem level): satisfied";
  Sched.Problem.verify_windows p;
  print_endline "solution constraints (LongnailProblem level): satisfied"

(* ---- Table 3: benchmark ISAXes ---- *)

let table3 () =
  sep "Table 3: ISAXes used in the evaluation";
  Printf.printf "%-15s | %-60s | %s\n" "ISAX" "Description" "Demonstrates";
  Printf.printf "%s\n" (String.make 140 '-');
  List.iter
    (fun (e : Isax.Registry.entry) ->
      Printf.printf "%-15s | %-60s | %s\n" e.name e.description e.demonstrates)
    Isax.Registry.all

(* ---- Table 4: ASIC results ---- *)

(* the paper's Table 4 numbers (area %, freq %) for side-by-side comparison:
   ORCA, Piccolo, PicoRV32, VexRiscv *)
let paper_table4 =
  [
    ("autoinc", [ (20, -6); (3, -9); (23, 0); (12, 2) ]);
    ("dotprod", [ (23, -14); (4, 0); (21, -2); (21, 2) ]);
    ("ijmp", [ (2, -3); (7, 3); (7, 2); (12, 0) ]);
    ("sbox", [ (7, -2); (0, 3); (6, 2); (8, -1) ]);
    ("sparkle", [ (85, -24); (2, -1); (46, 0); (45, -2) ]);
    ("sqrt_tightly", [ (80, -32); (22, -15); (100, -5); (43, -8) ]);
    ("sqrt_decoupled", [ (56, -5); (10, 3); (111, -7); (47, 6) ]);
    ("  w/o hazard handling", [ (46, -6); (10, 3); (96, -2); (40, 4) ]);
    ("zol", [ (7, -2); (13, 4); (10, -1); (14, -3) ]);
    ("autoinc+zol", [ (29, -6); (3, 2); (32, -1); (16, 5) ]);
  ]

let table4 () =
  sep "Table 4: ASIC area and frequency overheads (measured vs. paper)";
  (* pinned to the registry's paper cores: Table 4 has exactly these
     four columns, in this order, with [paper_table4] paired by index *)
  let paper_cores = Scaiev.Core_registry.paper_datasheets () in
  Printf.printf "Base cores (area excluding caches / reachable frequency):\n";
  List.iter
    (fun (c : Scaiev.Datasheet.t) ->
      Printf.printf "  %-9s %8.0f um^2  %5.0f MHz\n" c.core_name c.base_area_um2 c.base_freq_mhz)
    paper_cores;
  Printf.printf "\n%-22s" "";
  List.iter
    (fun (c : Scaiev.Datasheet.t) -> Printf.printf "| %-21s " c.core_name)
    paper_cores;
  Printf.printf "\n%-22s" "ISAX";
  List.iter (fun _ -> Printf.printf "| %-10s %-10s " "area" "freq") paper_cores;
  Printf.printf "\n%s\n" (String.make 118 '-');
  let row label results paper =
    Printf.printf "%-22s" label;
    List.iteri
      (fun i (r : Asic.Flow.result) ->
        let pa, pf = List.nth paper i in
        Printf.printf "| +%3.0f%%(+%3d) %+3.0f%%(%+3d) " r.area_overhead_pct pa r.freq_delta_pct pf)
      results;
    print_newline ()
  in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      match List.assoc_opt e.name paper_table4 with
      | None -> () (* a bundled ISAX that is no Table 4 row, e.g. chksum *)
      | Some paper ->
          let tu = Isax.Registry.compile e in
          let results =
            List.map
              (fun core -> Asic.Flow.run ~isax_name:e.name (Longnail.Flow.compile ~request:(mkrequest ()) core tu))
              paper_cores
          in
          row e.name results paper;
          if e.name = "sqrt_decoupled" then begin
            (* the Table 4 sub-row: decoupled without data-hazard handling *)
            let results =
              List.map
                (fun core ->
                  Asic.Flow.run ~isax_name:(e.name ^ "-nohazard")
                    (Longnail.Flow.compile
                       ~request:(mkrequest ~knobs:(Longnail.Flow.knobs ~hazard_handling:false ()) ())
                       core tu))
                paper_cores
            in
            row "  w/o hazard handling" results (List.assoc "  w/o hazard handling" paper_table4)
          end)
    Isax.Registry.all;
  print_endline "\n(each cell: measured(paper); paper values from Table 4 of the ASPLOS'24 paper)"

(* ---- Figure 5: the ADDI running example at four levels ---- *)

let fig5 () =
  sep "Figure 5: ADDI at four abstraction levels";
  print_endline "(a) CoreDSL description:\n";
  print_endline
    {|    ADDI {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0010011;
      behavior: { if (rd != 0) X[rd] = (unsigned<32>)(X[rs1] + (signed<12>)imm); }
    }|};
  let tu = Coredsl.compile_rv32i () in
  let addi = require_tinstr tu "ADDI" in
  let hg = Ir.Hlir.lower_instruction tu addi in
  print_endline "\n(b) high-level IR (coredsl + hwarith dialects):\n";
  print_endline (Ir.Mir.graph_to_string hg);
  let lg = Ir.Passes.optimize (Ir.Lil.of_hlir tu.elab ~fields:addi.fields hg) in
  print_endline "\n(c) data-flow graph (lil + comb dialects):\n";
  print_endline (Ir.Mir.graph_to_string lg);
  let core = Scaiev.Datasheet.vexriscv in
  let f = Longnail.Flow.compile_functionality ~request:(mkrequest ()) core tu (`Instr addi) in
  print_endline "\n(d) register-transfer level (SystemVerilog, VexRiscv schedule):\n";
  print_endline f.cf_sv

(* ---- Figure 6: the scheduled LongnailProblem instance ---- *)

let fig6 () =
  sep "Figure 6: LongnailProblem instance for ADDI (cycle time 3.5 ns)";
  let tu = Coredsl.compile_rv32i () in
  let addi = require_tinstr tu "ADDI" in
  let core = Scaiev.Datasheet.vexriscv in
  let f =
    Longnail.Flow.compile_functionality
      ~request:
        (mkrequest
           ~knobs:(Longnail.Flow.knobs ~cycle_time:3.5 ~delay:Longnail.Delay_model.Physical ())
           ())
      core tu (`Instr addi)
  in
  print_string (Sched.Problem.to_string f.cf_built.Longnail.Sched_build.problem)

(* ---- Figure 7: the scheduling ILP ---- *)

let fig7 () =
  sep "Figure 7: ILP formulation (generated instance for ADDI)";
  print_endline
    "minimize   sum(t_i) + sum(l_ij)\nsubject to (C1) t_i + latency_i <= t_j\n\
    \           (C2) l_ij >= t_j - t_i\n           (C3) earliest_i <= t_i <= latest_i\n\
    \           (C4) t_i, l_ij in N0\n           (C5) t_i + latency_i + 1 <= t_j  (chain breakers)\n";
  let tu = Coredsl.compile_rv32i () in
  let addi = require_tinstr tu "ADDI" in
  let core = Scaiev.Datasheet.vexriscv in
  let f = Longnail.Flow.compile_functionality ~request:(mkrequest ()) core tu (`Instr addi) in
  print_endline (Oracle.Ilp_exact.ilp_text f.cf_built.Longnail.Sched_build.problem)

(* ---- Figure 8: SCAIE-V configuration for the ZOL ISAX ---- *)

let fig8 () =
  sep "Figure 8: SCAIE-V configuration file for the ZOL ISAX (VexRiscv)";
  let c =
    Longnail.Flow.compile ~request:(mkrequest ()) Scaiev.Datasheet.vexriscv
      (Isax.Registry.compile_by_name "zol")
  in
  print_string c.Longnail.Flow.config_yaml

(* ---- Figure 9: flow overview with metadata exchange ---- *)

let fig9 () =
  sep "Figure 9: Longnail <-> SCAIE-V metadata exchange";
  print_endline "virtual datasheet (5-stage VexRiscv):\n";
  print_string (Scaiev.Datasheet.to_yaml Scaiev.Datasheet.vexriscv);
  print_endline "\nexported SCAIE-V configuration for ADDI scheduled on this core:\n";
  let tu = Coredsl.compile_rv32i () in
  let addi = require_tinstr tu "ADDI" in
  let core = Scaiev.Datasheet.vexriscv in
  let f = Longnail.Flow.compile_functionality ~request:(mkrequest ()) core tu (`Instr addi) in
  let cfg =
    {
      Scaiev.Config.regs = [];
      funcs =
        [
          Longnail.Config_gen.functionality_of ~name:"ADDI" ~kind:`Instruction
            ~mask:(Longnail.Flow.mask_of addi) f.cf_hw;
        ];
    }
  in
  print_string (Scaiev.Config.to_yaml cfg)

(* ---- Section 5.5: performance case study ---- *)

let perf () =
  sep "Section 5.5: array-sum case study on VexRiscv (cycles)";
  let tu = Isax.Registry.compile_by_name "autoinc+zol" in
  let c = Longnail.Flow.compile ~request:(mkrequest ()) Scaiev.Datasheet.vexriscv tu in
  Printf.printf "%8s %14s %14s %10s\n" "n" "baseline" "autoinc+zol" "speedup";
  List.iter
    (fun n ->
      let b = Riscv.Case_study.run_baseline ~n in
      let i = Riscv.Case_study.run_isax ~n c in
      assert (b.checksum = Riscv.Case_study.expected_sum n);
      assert (i.checksum = Riscv.Case_study.expected_sum n);
      Printf.printf "%8d %14d %14d %9.2fx\n" n b.cycles i.cycles
        (float_of_int b.cycles /. float_of_int i.cycles))
    [ 8; 16; 32; 64; 128; 256; 512; 1024 ];
  let b1 = Riscv.Case_study.run_baseline ~n:64 and b2 = Riscv.Case_study.run_baseline ~n:1024 in
  let i1 = Riscv.Case_study.run_isax ~n:64 c and i2 = Riscv.Case_study.run_isax ~n:1024 c in
  let ab, bb = Riscv.Case_study.fit (64, b1.cycles) (1024, b2.cycles) in
  let ai, bi = Riscv.Case_study.fit (64, i1.cycles) (1024, i2.cycles) in
  Printf.printf "\nfitted: baseline = %dn + %d   (paper: 18n + 50)\n" ab bb;
  Printf.printf "fitted: isax     = %dn + %d   (paper: 11n + 50)\n" ai bi;
  let area = (Asic.Flow.run ~isax_name:"autoinc+zol" c).Asic.Flow.area_overhead_pct in
  Printf.printf "\narea overhead of autoinc+zol on VexRiscv: +%.0f%% (paper: +16%%)\n" area;
  Printf.printf "asymptotic speedup: +%.0f%% (paper: >60%%)\n" ((18.0 /. 11.0 -. 1.0) *. 100.0)

(* ---- ablations (DESIGN.md section 5) ---- *)

let ablation () =
  sep "Ablation: ILP vs ASAP scheduler";
  Printf.printf "%-15s %-10s %14s %14s %10s %10s\n" "ISAX" "core" "ILP objective" "ASAP objective"
    "ILP bits" "ASAP bits";
  List.iter
    (fun name ->
      List.iter
        (fun core ->
          let tu = Isax.Registry.compile_by_name name in
          let stats sch =
            let c =
              Longnail.Flow.compile
                ~request:(mkrequest ~knobs:(Longnail.Flow.knobs ~scheduler:sch ()) ())
                core tu
            in
            List.fold_left
              (fun (obj, bits) (f : Longnail.Flow.compiled_functionality) ->
                let p = f.cf_built.Longnail.Sched_build.problem in
                let st = Array.fold_left ( + ) 0 p.Sched.Problem.start_time in
                ( obj + st + Sched.Problem.total_lifetime p,
                  bits + f.cf_hw.Longnail.Hwgen.pipe_reg_bits ))
              (0, 0) c.Longnail.Flow.funcs
          in
          let iobj, ibits = stats Longnail.Sched_build.Ilp in
          let aobj, abits = stats Longnail.Sched_build.Asap in
          Printf.printf "%-15s %-10s %14d %14d %10d %10d\n" name core.Scaiev.Datasheet.core_name
            iobj aobj ibits abits)
        [ Scaiev.Datasheet.orca; Scaiev.Datasheet.vexriscv ])
    [ "dotprod"; "sparkle"; "sqrt_tightly" ];
  print_endline
    "(the Figure 7 objective = sum of start times + lifetimes; after wiring-op\n\
     \ sinking both schedulers materialize similar register counts)";
  sep "Ablation: uniform vs physical scheduling delays (the paper's future work)";
  Printf.printf "%-15s %-10s %18s %18s\n" "ISAX" "core" "uniform freq" "physical freq";
  List.iter
    (fun name ->
      List.iter
        (fun core ->
          let tu = Isax.Registry.compile_by_name name in
          let freq dm =
            let request = mkrequest ~knobs:(Longnail.Flow.knobs ?delay:dm ()) () in
            (Asic.Flow.run ~isax_name:name (Longnail.Flow.compile ~request core tu))
              .Asic.Flow.freq_delta_pct
          in
          Printf.printf "%-15s %-10s %17.1f%% %17.1f%%\n" name core.Scaiev.Datasheet.core_name
            (freq None)
            (freq (Some Longnail.Delay_model.Physical)))
        [ Scaiev.Datasheet.orca ])
    [ "dotprod"; "sparkle"; "sqrt_tightly" ];
  sep "Ablation: data-hazard handling (Table 4 sub-row)";
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  List.iter
    (fun core ->
      let w = Asic.Flow.run ~isax_name:"sqrt_d" (Longnail.Flow.compile ~request:(mkrequest ()) core tu) in
      let wo =
        Asic.Flow.run ~isax_name:"sqrt_d"
          (Longnail.Flow.compile
             ~request:(mkrequest ~knobs:(Longnail.Flow.knobs ~hazard_handling:false ()) ())
             core tu)
      in
      Printf.printf "%-10s with hazards: +%.0f%%   without: +%.0f%%\n"
        core.Scaiev.Datasheet.core_name w.Asic.Flow.area_overhead_pct wo.Asic.Flow.area_overhead_pct)
    (Scaiev.Core_registry.paper_datasheets ())

(* ---- Section 7 outlook: application-class cores ---- *)

let outlook () =
  sep "Section 7 outlook: application-class cores (CVA5 / CVA6 prototypes)";
  print_endline "The relative cost of SCAIE-V integration decreases as the base core grows:\n";
  Printf.printf "%-15s" "ISAX";
  List.iter
    (fun (c : Scaiev.Datasheet.t) -> Printf.printf "| %-12s" c.core_name)
    (Scaiev.Core_registry.datasheets ~include_outlook:true ());
  print_newline ();
  Printf.printf "%s\n" (String.make 105 '-');
  List.iter
    (fun name ->
      let tu = Isax.Registry.compile_by_name name in
      Printf.printf "%-15s" name;
      List.iter
        (fun core ->
          let r = Asic.Flow.run ~isax_name:name (Longnail.Flow.compile ~request:(mkrequest ()) core tu) in
          Printf.printf "| %+10.1f%% " r.Asic.Flow.area_overhead_pct)
        (Scaiev.Core_registry.datasheets ~include_outlook:true ());
      print_newline ())
    [ "dotprod"; "sparkle"; "sqrt_decoupled"; "zol" ]

(* ---- Section 7 outlook: design-space exploration ---- *)

let dse () =
  sep "Section 7 outlook: design-space exploration (sqrt_tightly on VexRiscv)";
  let tu = Isax.Registry.compile_by_name "sqrt_tightly" in
  let core = Scaiev.Datasheet.vexriscv in
  let measure c =
    let r = Asic.Flow.run ~isax_name:"sqrt_tightly" c in
    (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
  in
  let points = Longnail.Dse.explore ~measure core tu in
  Printf.printf "%-22s %10s %10s %10s %10s %s\n" "configuration" "area" "fmax" "latency"
    "pipe bits" "";
  List.iter
    (fun (p : Longnail.Dse.point) ->
      Printf.printf "%-22s %+9.1f%% %7.0fMHz %10d %10d %s\n" p.dp_label p.dp_area_pct
        p.dp_freq_mhz p.dp_latency p.dp_pipe_bits
        (if p.dp_pareto then "  <- Pareto" else ""))
    points

(* ---- Section 7 outlook: resource-sharing opportunity ---- *)

let sharing () =
  sep "Section 7 outlook: resource-sharing opportunity analysis";
  print_endline
    "Longnail currently builds fully spatial datapaths; the planned sharing";
  print_endline "extension would time-multiplex operators. Estimated savings:\n";
  Printf.printf "%-15s %-10s %12s %14s %14s\n" "ISAX" "core" "ISAX area" "shareable" "saving";
  List.iter
    (fun name ->
      List.iter
        (fun core ->
          let c = Longnail.Flow.compile ~request:(mkrequest ()) core (Isax.Registry.compile_by_name name) in
          let r = Asic.Flow.run ~isax_name:name c in
          let opps = Longnail.Sharing.analyze c in
          let saved = Longnail.Sharing.total_saving opps in
          Printf.printf "%-15s %-10s %10.0fum2 %14d %11.0fum2 (%.0f%%)\n" name
            core.Scaiev.Datasheet.core_name r.Asic.Flow.isax_area_um2
            (List.fold_left (fun a (o : Longnail.Sharing.opportunity) -> a + o.sh_shareable) 0 opps)
            saved
            (100.0 *. saved /. max 1.0 r.Asic.Flow.isax_area_um2))
        [ Scaiev.Datasheet.orca; Scaiev.Datasheet.vexriscv ])
    [ "sparkle"; "sqrt_tightly"; "sqrt_decoupled"; "dotprod" ]

(* ---- extra ISAXes beyond Table 3 ---- *)

let extra () =
  sep "Extra ISAXes (beyond Table 3): wiring / serial-chain / priority patterns";
  Printf.printf "%-10s" "ISAX";
  List.iter
    (fun (c : Scaiev.Datasheet.t) -> Printf.printf "| %-24s" c.core_name)
    (Scaiev.Core_registry.datasheets ());
  print_newline ();
  Printf.printf "%s\n" (String.make 112 '-');
  List.iter
    (fun (e : Isax.Extra.entry) ->
      let tu = Isax.Extra.compile e in
      Printf.printf "%-10s" e.name;
      List.iter
        (fun core ->
          let c = Longnail.Flow.compile ~request:(mkrequest ()) core tu in
          let f = require_func c e.instr in
          let r = Asic.Flow.run ~isax_name:e.name c in
          Printf.printf "| +%4.1f%% %+3.0f%% %-10s" r.Asic.Flow.area_overhead_pct
            r.Asic.Flow.freq_delta_pct
            (Scaiev.Config.mode_to_string f.cf_mode))
        (Scaiev.Core_registry.datasheets ());
      print_newline ())
    Isax.Extra.all

let all_targets =
  [
    ("table1", table1); ("table2", table2); ("table3", table3); ("table4", table4);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8); ("fig9", fig9);
    ("perf", perf); ("ablation", ablation); ("outlook", outlook); ("dse", dse);
    ("sharing", sharing); ("extra", extra);
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "bench: %s\navailable targets: %s\n" m
        (String.concat " " (List.map fst all_targets));
      exit 2)
    fmt

let main () =
  (* Every argument is a target name; the bench takes no flags. Every
     name is validated before any target runs, and a bad one exits 2. *)
  let names = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun n ->
      if String.starts_with ~prefix:"-" n then usage_error "unknown flag '%s'" n
      else if not (List.mem_assoc n all_targets) then usage_error "unknown target '%s'" n)
    names;
  let names = if names = [] then List.map fst all_targets else names in
  List.iter (fun n -> (List.assoc n all_targets) ()) names

let () =
  try main () with
  | Diag.Fatal ds ->
      Format.eprintf "%a@." Diag.render_all ds;
      exit 1
  | e ->
      Printf.eprintf "bench: internal error: %s\n" (Printexc.to_string e);
      prerr_endline "this is a bug; re-run with OCAMLRUNPARAM=b for a backtrace";
      exit 3
