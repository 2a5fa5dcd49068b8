(* End-to-end tests for the Longnail flow: every benchmark ISAX compiles
   for every host core, execution modes come out as the paper describes,
   the SCAIE-V configuration matches Figure 8, and — most importantly —
   the generated RTL co-simulates against the CoreDSL reference
   interpreter (the paper's verification methodology, Section 5.3). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let u32 = Bitvec.unsigned_ty 32
let bv v = Bitvec.of_int u32 v

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let compile name core = Longnail.Flow.compile core (Isax.Registry.compile_by_name name)

(* ---- breadth: everything compiles and verifies everywhere ---- *)

let test_all_isaxes_all_cores () =
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      List.iter
        (fun core ->
          let c = Longnail.Flow.compile core tu in
          List.iter
            (fun (f : Longnail.Flow.compiled_functionality) ->
              Sched.Problem.verify f.cf_built.Longnail.Sched_build.problem;
              Rtl.Netlist.validate f.cf_hw.Longnail.Hwgen.netlist;
              check_bool
                (Printf.sprintf "%s/%s/%s has sv" e.name core.Scaiev.Datasheet.core_name f.cf_name)
                true
                (String.length f.cf_sv > 0))
            c.Longnail.Flow.funcs)
        (Scaiev.Core_registry.datasheets ()))
    Isax.Registry.all

(* The reference interpreter as the oracle of the compiled engine at the
   functionality level: every generated ISAX module answers one stimulus
   (the default one plus fixed operands) identically on both engines,
   cycle count included. *)
let test_cosim_cross_engine () =
  let show (r : Longnail.Cosim.response) =
    let bv = Bitvec.to_hex_string in
    let opt f = function None -> "-" | Some x -> f x in
    let valid (v, ok) = Printf.sprintf "%s/%b" (bv v) ok in
    String.concat "; "
      ([
         "rd " ^ opt valid r.rd_write;
         "pc " ^ opt valid r.pc_write;
         "mem " ^ opt (fun (a, v, ok) -> Printf.sprintf "%d:%s" a (valid (v, ok))) r.mem_write;
         "load " ^ opt (fun (a, ok) -> Printf.sprintf "%d/%b" a ok) r.mem_read_request;
         "cycles " ^ string_of_int r.cycles;
       ]
      @ List.map
          (fun (w : Longnail.Cosim.custreg_write) ->
            Printf.sprintf "%s[%s] %s" w.cw_reg (opt string_of_int w.cw_index)
              (valid (w.cw_data, w.cw_valid)))
          r.custreg_writes)
  in
  let core = Scaiev.Datasheet.vexriscv in
  let stim =
    {
      Longnail.Cosim.default_stimulus with
      instr_word = Some (bv 0x00A5_8533);
      rs1 = Some (bv 0x1234_5678);
      rs2 = Some (bv 0x0BAD_F00D);
      pc = Some (bv 0x100);
    }
  in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let c = Longnail.Flow.compile core (Isax.Registry.compile e) in
      List.iter
        (fun (f : Longnail.Flow.compiled_functionality) ->
          check_str
            (Printf.sprintf "%s/%s interp = compiled" e.name f.cf_name)
            (show (Longnail.Cosim.run f stim))
            (show
               (Longnail.Cosim.run_on
                  (Oracle.Rtl_sim.engine f.cf_hw.Longnail.Hwgen.netlist)
                  f stim)))
        c.Longnail.Flow.funcs)
    Isax.Registry.all

(* Engine reuse: one engine per functionality, reset by [Cosim.run_on]
   before each of 24 random stimuli, answers exactly like a fresh engine
   per stimulus ([Cosim.run]), cycle count included, on both engine
   kinds. *)
let test_cosim_reuse_equals_fresh () =
  let core = Scaiev.Datasheet.vexriscv in
  let rnd seed tag = Hashtbl.hash (seed, tag) lor (Hashtbl.hash (tag, seed) lsl 30) in
  let stimulus (f : Longnail.Flow.compiled_functionality) tu seed =
    let word =
      match Coredsl.Tast.find_tinstr tu f.cf_name with
      | Some ti ->
          Bitvec.to_int ti.match_bits lor (rnd seed "word" land lnot (Bitvec.to_int ti.mask))
      | None -> rnd seed "word"
    in
    let r tag = bv (rnd seed tag land 0xFFFFFFFF) in
    {
      Longnail.Cosim.instr_word = Some (bv (word land 0xFFFFFFFF));
      rs1 = Some (r "rs1");
      rs2 = Some (r "rs2");
      pc = Some (r "pc");
      custreg = (fun reg idx -> bv (rnd (seed, reg, idx) "custreg" land 0xFFFFFFFF));
      mem_read =
        (fun addr elems ->
          Bitvec.of_int (Bitvec.unsigned_ty (8 * elems))
            (rnd (seed, addr) "mem" land ((1 lsl (8 * elems)) - 1)));
    }
  in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      let c = Longnail.Flow.compile core tu in
      List.iter
        (fun (f : Longnail.Flow.compiled_functionality) ->
          let nl = f.cf_hw.Longnail.Hwgen.netlist in
          List.iter
            (fun (kname, make) ->
              let engine = make nl in
              for seed = 1 to 24 do
                let stim = stimulus f tu seed in
                let reused = Longnail.Cosim.run_on engine f stim in
                let fresh = Longnail.Cosim.run_on (make nl) f stim in
                check_bool
                  (Printf.sprintf "%s/%s %s stimulus %d: reused = fresh" e.name f.cf_name kname
                     seed)
                  true (reused = fresh)
              done)
            [ ("compiled", Rtl.Engine.create); ("interp", Oracle.Rtl_sim.engine) ])
        c.Longnail.Flow.funcs)
    Isax.Registry.all

(* ---- mode selection (Section 4.3 / Table 4 narrative) ---- *)

let mode_of c name =
  (Option.get (Longnail.Flow.find_func c name)).Longnail.Flow.cf_mode

let test_mode_selection () =
  (* sqrt is longer than any pipeline: tightly-coupled without spawn,
     decoupled with spawn, FSM-sequenced (in-pipeline) on PicoRV32 *)
  let c = compile "sqrt_tightly" Scaiev.Datasheet.vexriscv in
  check_bool "sqrt_t vex tightly" true (mode_of c "SQRT" = Scaiev.Config.Tightly_coupled);
  let c = compile "sqrt_decoupled" Scaiev.Datasheet.vexriscv in
  check_bool "sqrt_d vex decoupled" true (mode_of c "SQRT_D" = Scaiev.Config.Decoupled);
  let c = compile "sqrt_tightly" Scaiev.Datasheet.picorv32 in
  check_bool "sqrt_t pico in-pipeline" true (mode_of c "SQRT" = Scaiev.Config.In_pipeline);
  (* short instructions stay in-pipeline *)
  let c = compile "sbox" Scaiev.Datasheet.orca in
  check_bool "sbox orca in-pipeline" true (mode_of c "SUBBYTES" = Scaiev.Config.In_pipeline);
  (* always-blocks use the always mode *)
  let c = compile "zol" Scaiev.Datasheet.vexriscv in
  check_bool "zol always" true (mode_of c "zol" = Scaiev.Config.Always_mode)

let test_sqrt_pipeline_depth () =
  (* the paper reports the sqrt spanning ~10 stages *)
  let c = compile "sqrt_tightly" Scaiev.Datasheet.vexriscv in
  let f = Option.get (Longnail.Flow.find_func c "SQRT") in
  let depth = f.cf_hw.Longnail.Hwgen.max_stage in
  check_bool (Printf.sprintf "depth %d in [8, 16]" depth) true (depth >= 8 && depth <= 16)

(* ---- configuration output (Figure 8) ---- *)

let test_zol_config_yaml () =
  let c = compile "zol" Scaiev.Datasheet.vexriscv in
  let y = c.Longnail.Flow.config_yaml in
  check_bool "requests COUNT" true (contains y "{register: COUNT, width: 32, elements: 1}");
  check_bool "requests START_PC" true (contains y "register: START_PC");
  check_bool "setup instruction" true (contains y "instruction: setup_zol");
  check_bool "always block" true (contains y "always: zol");
  check_bool "WrCOUNT.addr" true (contains y "WrCOUNT.addr");
  check_bool "WrCOUNT.data with valid" true (contains y "WrCOUNT.data");
  check_bool "has valid" true (contains y "has valid: 1");
  check_bool "WrPC in stage 0" true (contains y "{interface: WrPC, stage: 0, has valid: 1");
  (* and it parses back *)
  let cfg = Scaiev.Config.of_yaml y in
  check_int "3 registers" 3 (List.length cfg.Scaiev.Config.regs)

let test_always_entries_stage0 () =
  let c = compile "zol" Scaiev.Datasheet.picorv32 in
  let zol =
    List.find (fun f -> f.Scaiev.Config.fn_kind = `Always) c.Longnail.Flow.config.Scaiev.Config.funcs
  in
  List.iter
    (fun e -> check_int "stage 0" 0 e.Scaiev.Config.se_stage)
    zol.Scaiev.Config.fn_entries

(* ---- co-simulation against the reference interpreter ---- *)

let cosim_one ~isax ~instr ~fields ~setup ~stim_of check =
  List.iter
    (fun core ->
      let tu = Isax.Registry.compile_by_name isax in
      let c = Longnail.Flow.compile core tu in
      let f = Option.get (Longnail.Flow.find_func c instr) in
      let ti = Option.get (Coredsl.Tast.find_tinstr tu instr) in
      let word = Coredsl.Interp.encode ti (List.map (fun (k, v) -> (k, bv v)) fields) in
      (* reference execution *)
      let st = Coredsl.Interp.create tu in
      setup st;
      Coredsl.Interp.exec_instr st ti ~instr_word:word;
      (* rtl execution *)
      let resp = Longnail.Cosim.run f (stim_of word) in
      check core st resp)
    (Scaiev.Core_registry.datasheets ())

let test_cosim_dotprod () =
  let a = 0x04030201 and b = 0x281E140A in
  cosim_one ~isax:"dotprod" ~instr:"DOTP"
    ~fields:[ ("rs1", 1); ("rs2", 2); ("rd", 3) ]
    ~setup:(fun st ->
      Coredsl.Interp.write_regfile st "X" 1 (bv a);
      Coredsl.Interp.write_regfile st "X" 2 (bv b))
    ~stim_of:(fun word ->
      { Longnail.Cosim.default_stimulus with instr_word = Some word; rs1 = Some (bv a); rs2 = Some (bv b) })
    (fun core st resp ->
      let expect = Coredsl.Interp.read_regfile st "X" 3 in
      match resp.Longnail.Cosim.rd_write with
      | Some (data, valid) ->
          check_bool (core.Scaiev.Datasheet.core_name ^ " valid") true valid;
          check_str (core.core_name ^ " dotp value") (Bitvec.to_hex_string expect)
            (Bitvec.to_hex_string data)
      | None -> Alcotest.fail "no rd write")

let test_cosim_sbox () =
  let a = 0x00010253 in
  cosim_one ~isax:"sbox" ~instr:"SUBBYTES"
    ~fields:[ ("rs1", 1); ("rd", 2) ]
    ~setup:(fun st -> Coredsl.Interp.write_regfile st "X" 1 (bv a))
    ~stim_of:(fun word ->
      { Longnail.Cosim.default_stimulus with instr_word = Some word; rs1 = Some (bv a) })
    (fun core st resp ->
      let expect = Coredsl.Interp.read_regfile st "X" 2 in
      match resp.Longnail.Cosim.rd_write with
      | Some (data, true) ->
          check_str (core.Scaiev.Datasheet.core_name ^ " sbox") (Bitvec.to_hex_string expect)
            (Bitvec.to_hex_string data)
      | _ -> Alcotest.fail "no valid rd write")

let test_cosim_sparkle () =
  let a = 0xDEADBEEF and b = 0x12345678 in
  cosim_one ~isax:"sparkle" ~instr:"ALZ_X"
    ~fields:[ ("rs1", 1); ("rs2", 2); ("rd", 3) ]
    ~setup:(fun st ->
      Coredsl.Interp.write_regfile st "X" 1 (bv a);
      Coredsl.Interp.write_regfile st "X" 2 (bv b))
    ~stim_of:(fun word ->
      { Longnail.Cosim.default_stimulus with instr_word = Some word; rs1 = Some (bv a); rs2 = Some (bv b) })
    (fun core st resp ->
      let expect = Coredsl.Interp.read_regfile st "X" 3 in
      match resp.Longnail.Cosim.rd_write with
      | Some (data, true) ->
          check_str (core.Scaiev.Datasheet.core_name ^ " alzette") (Bitvec.to_hex_string expect)
            (Bitvec.to_hex_string data)
      | _ -> Alcotest.fail "no valid rd write")

let test_cosim_sqrt_both () =
  List.iter
    (fun (isax, instr) ->
      List.iter
        (fun x ->
          cosim_one ~isax ~instr
            ~fields:[ ("rs1", 1); ("rd", 2) ]
            ~setup:(fun st -> Coredsl.Interp.write_regfile st "X" 1 (bv x))
            ~stim_of:(fun word ->
              { Longnail.Cosim.default_stimulus with instr_word = Some word; rs1 = Some (bv x) })
            (fun core st resp ->
              let expect = Coredsl.Interp.read_regfile st "X" 2 in
              match resp.Longnail.Cosim.rd_write with
              | Some (data, true) ->
                  check_str
                    (Printf.sprintf "%s %s sqrt(%d)" core.Scaiev.Datasheet.core_name isax x)
                    (Bitvec.to_hex_string expect) (Bitvec.to_hex_string data)
              | _ -> Alcotest.fail "no valid rd write"))
        [ 0; 1; 100; 12345; 0x7FFFFFFF ])
    [ ("sqrt_tightly", "SQRT"); ("sqrt_decoupled", "SQRT_D") ]

let test_cosim_autoinc_store () =
  (* AI_SW drives the memory-write interface with ADDR from the custom reg *)
  cosim_one ~isax:"autoinc" ~instr:"AI_SW"
    ~fields:[ ("rs2", 2) ]
    ~setup:(fun st ->
      Coredsl.Interp.write_reg st "ADDR" (bv 0x200);
      Coredsl.Interp.write_regfile st "X" 2 (bv 0xCAFE))
    ~stim_of:(fun word ->
      {
        Longnail.Cosim.default_stimulus with
        instr_word = Some word;
        rs2 = Some (bv 0xCAFE);
        custreg = (fun _ _ -> bv 0x200);
      })
    (fun core _st resp ->
      (match resp.Longnail.Cosim.mem_write with
      | Some (addr, data, true) ->
          check_int (core.Scaiev.Datasheet.core_name ^ " store addr") 0x200 addr;
          check_str "store data" "0x0000cafe" (Bitvec.to_hex_string data)
      | _ -> Alcotest.fail "no memory write");
      (* the ADDR custom register gets the incremented address *)
      match resp.Longnail.Cosim.custreg_writes with
      | [ w ] ->
          check_str "ADDR+4" "0x00000204" (Bitvec.to_hex_string w.Longnail.Cosim.cw_data);
          check_bool "valid" true w.cw_valid
      | _ -> Alcotest.fail "expected one custreg write")

let test_cosim_zol_always () =
  (* the always-block: at END_PC with COUNT != 0 it redirects the PC *)
  let tu = Isax.Registry.compile_by_name "zol" in
  let core = Scaiev.Datasheet.vexriscv in
  let c = Longnail.Flow.compile core tu in
  let f = Option.get (Longnail.Flow.find_func c "zol") in
  let regs = function
    | "COUNT" -> bv 3
    | "START_PC" -> bv 0x104
    | "END_PC" -> bv 0x10A
    | r -> Alcotest.failf "unexpected reg %s" r
  in
  let stim =
    {
      Longnail.Cosim.default_stimulus with
      pc = Some (bv 0x10A);
      custreg = (fun r _ -> regs r);
    }
  in
  let resp = Longnail.Cosim.run f stim in
  (match resp.Longnail.Cosim.pc_write with
  | Some (data, true) -> check_str "redirect to start" "0x00000104" (Bitvec.to_hex_string data)
  | _ -> Alcotest.fail "expected pc write");
  (match
     List.find_opt (fun w -> w.Longnail.Cosim.cw_reg = "COUNT") resp.Longnail.Cosim.custreg_writes
   with
  | Some w ->
      check_bool "count write valid" true w.cw_valid;
      check_str "count decremented" "0x00000002" (Bitvec.to_hex_string w.cw_data)
  | None -> Alcotest.fail "expected COUNT write");
  (* when the PC does not match, the writes are invalid *)
  let resp2 = Longnail.Cosim.run f { stim with pc = Some (bv 0x100) } in
  (match resp2.Longnail.Cosim.pc_write with
  | Some (_, valid) -> check_bool "no redirect" false valid
  | None -> Alcotest.fail "pc write port must exist")

(* ---- ablations ---- *)

let test_ablation_ilp_vs_asap () =
  (* the ILP scheduler yields no more pipeline register bits than ASAP *)
  let tu = Isax.Registry.compile_by_name "sqrt_tightly" in
  let core = Scaiev.Datasheet.vexriscv in
  let req sch = Longnail.Flow.Request.make ~knobs:(Longnail.Flow.knobs ~scheduler:sch ()) () in
  let ilp = Longnail.Flow.compile ~request:(req Longnail.Sched_build.Ilp) core tu in
  let asap = Longnail.Flow.compile ~request:(req Longnail.Sched_build.Asap) core tu in
  let bits c =
    List.fold_left (fun acc f -> acc + f.Longnail.Flow.cf_hw.Longnail.Hwgen.pipe_reg_bits) 0
      c.Longnail.Flow.funcs
  in
  check_bool
    (Printf.sprintf "ilp %d <= asap %d" (bits ilp) (bits asap))
    true
    (bits ilp <= bits asap)

let test_ablation_physical_delays () =
  (* scheduling with the physical model spreads the sparkle datapath over
     more stages than the optimistic uniform model *)
  let tu = Isax.Registry.compile_by_name "sparkle" in
  let core = Scaiev.Datasheet.orca in
  let uni = Longnail.Flow.compile core tu in
  let phys =
    Longnail.Flow.compile
      ~request:
        (Longnail.Flow.Request.make
           ~knobs:(Longnail.Flow.knobs ~delay:Longnail.Delay_model.Physical ())
           ())
      core tu
  in
  let max_stage c =
    List.fold_left (fun acc f -> max acc f.Longnail.Flow.cf_hw.Longnail.Hwgen.max_stage) 0
      c.Longnail.Flow.funcs
  in
  check_bool "physical model uses at least as many stages" true (max_stage phys >= max_stage uni)

let test_infeasible_schedule_reported () =
  (* a PC write fed by a memory load cannot meet ORCA's narrow WrPC window
     if we also forbid the relaxed modes: force infeasibility by shrinking
     the cycle time so the chain cannot fit the window *)
  let src =
    {|
import "RV32I.core_desc"
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
  let tu = Coredsl.compile ~target:"T" src in
  (* with a tight cycle time the load + multiply chain needs more stages
     than WrPC's native window allows -> Flow_error *)
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
    let m = d.Diag.message in
    Alcotest.(check string) "stable code" "E0401" d.Diag.code;
    check_bool "mentions the instruction" true
      (let nl = String.length "LONGJMP" in
       let rec go i = i + nl <= String.length m && (String.sub m i nl = "LONGJMP" || go (i + 1)) in
       go 0)

(* An always-block is anchored at stage 0, but a memory read still
   answers only after RdMem's datasheet latency (1 on VexRiscv). Storing
   the loaded value therefore cannot share stage 0 with the read: the
   block is infeasible and the diagnostic cites the assignment. *)
let test_always_block_mem_read_infeasible () =
  let src =
    {|import "RV32I.core_desc"
InstructionSet X_ARMLD extends RV32I {
  architectural_state {
    register unsigned<32> ARMED, GOT;
  }
  always {
    armld {
      if (ARMED != 0) GOT = MEM[1027:1024];
    }
  }
}
|}
  in
  let tu = Coredsl.compile ~file:"armld.core_desc" ~target:"X_ARMLD" src in
  match Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu with
  | _ -> Alcotest.fail "expected infeasible schedule"
  | exception Diag.Fatal (d :: _) -> (
      check_str "stable code" "E0401" d.Diag.code;
      match d.Diag.span with
      | None -> Alcotest.fail "infeasibility diagnostic lost its source span"
      | Some sp -> check_int "cites the GOT = ... line" 8 sp.Diag.sp_line)

(* a scheduler ascent that runs out of steps is the registered E0904 *)
let test_solver_budget_code () =
  match Longnail.Flow.diag_of_stage_exn (Lp.Netopt.Budget_exhausted 100_000) with
  | Some d ->
      check_str "code" "E0904" d.Diag.code;
      check_bool "registered" true (Diag.is_registered d.Diag.code)
  | None -> Alcotest.fail "budget exhaustion is not a stage diagnostic"

let test_inheritance_cycle_rejected () =
  let src =
    {|
InstructionSet A extends B { }
InstructionSet B extends A { }
|}
  in
  try
    ignore (Coredsl.compile ~target:"A" src);
    Alcotest.fail "expected cycle error"
  with Diag.Fatal ds ->
    Alcotest.(check (list string)) "cycle reported" [ "E0203" ]
      (List.map (fun (d : Diag.t) -> d.code) ds)

(* ---- outlook features (Section 7) ---- *)

let test_outlook_relative_cost_decreases () =
  (* application-class cores: same ISAX, smaller relative overhead *)
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let overhead core =
    (Asic.Flow.run ~isax_name:"sqrt" (Longnail.Flow.compile core tu)).Asic.Flow.area_overhead_pct
  in
  let vex = overhead Scaiev.Datasheet.vexriscv in
  let cva5 = overhead Scaiev.Datasheet.cva5 in
  let cva6 = overhead Scaiev.Datasheet.cva6 in
  check_bool (Printf.sprintf "vex %.1f > cva5 %.1f > cva6 %.1f" vex cva5 cva6) true
    (vex > cva5 && cva5 > cva6)

let test_dse_pareto () =
  (* dotprod is too small to differentiate configurations; sqrt spans
     many stages and produces a real trade-off space *)
  let tu = Isax.Registry.compile_by_name "sqrt_tightly" in
  let core = Scaiev.Datasheet.vexriscv in
  let measure c =
    let r = Asic.Flow.run ~isax_name:"sqrt_tightly" c in
    (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
  in
  let points = Longnail.Dse.explore ~measure core tu in
  check_bool "several points" true (List.length points >= 2);
  let pareto = List.filter (fun (p : Longnail.Dse.point) -> p.dp_pareto) points in
  check_bool "pareto front non-empty" true (pareto <> []);
  (* no pareto point dominates another pareto point *)
  List.iter
    (fun p ->
      List.iter
        (fun q -> check_bool "no domination on the front" false (Longnail.Dse.dominates p q))
        (List.filter (fun q -> q != p) pareto))
    pareto;
  (* every configuration still produces verified hardware *)
  List.iter
    (fun (p : Longnail.Dse.point) -> check_bool "latency positive" true (p.dp_latency >= 1))
    points

let mk_point ?(label = "p") area freq lat =
  {
    Longnail.Dse.dp_label = label;
    dp_scheduler = Longnail.Sched_build.Ilp;
    dp_cycle_factor = 1.0;
    dp_physical = false;
    dp_area_pct = area;
    dp_freq_mhz = freq;
    dp_latency = lat;
    dp_pipe_bits = 0;
    dp_pareto = false;
  }

let test_mark_pareto_ties () =
  (* equal points must not dominate each other: duplicates both stay on
     the front instead of knocking each other out *)
  let a = mk_point ~label:"a" 10.0 100.0 3 in
  let b = mk_point ~label:"b" 10.0 100.0 3 in
  check_bool "equal points don't dominate" false
    (Longnail.Dse.dominates a b || Longnail.Dse.dominates b a);
  let dominated = mk_point ~label:"c" 20.0 90.0 5 in
  match Longnail.Dse.mark_pareto [ a; b; dominated ] with
  | [ a'; b'; c' ] ->
      check_bool "first duplicate on front" true a'.Longnail.Dse.dp_pareto;
      check_bool "second duplicate on front" true b'.Longnail.Dse.dp_pareto;
      check_bool "dominated point off front" false c'.Longnail.Dse.dp_pareto
  | _ -> Alcotest.fail "mark_pareto changed the point count"

(* the DSE sweep through a session: front-end and HLIR/LIL passes run
   exactly once per functionality across the whole knob grid, and a
   repeated sweep replays entirely from cache with identical points *)
let test_dse_session_reuse () =
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let core = Scaiev.Datasheet.vexriscv in
  let measure c =
    let r = Asic.Flow.run ~isax_name:"dotprod" c in
    (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
  in
  let n_funcs = List.length (Longnail.Flow.compile core tu).Longnail.Flow.funcs in
  let ss = Longnail.Dse.sweep_session () in
  let obs_cold = Obs.create ~name:"dse-cold" () in
  let cold =
    Longnail.Dse.explore ~sweep:ss
      ~request:(Longnail.Flow.Request.make ~obs:obs_cold ())
      ~measure core tu
  in
  Obs.finish obs_cold;
  let cold_root = Obs.root obs_cold in
  List.iter
    (fun stage ->
      check_int (stage ^ " runs once per functionality") n_funcs
        (List.length (Obs.find_spans cold_root stage)))
    [ "hlir"; "lil"; "optimize" ];
  check_bool "schedule re-runs per grid point" true
    (List.length (Obs.find_spans cold_root "schedule") > n_funcs);
  let obs_warm = Obs.create ~name:"dse-warm" () in
  let warm =
    Longnail.Dse.explore ~sweep:ss
      ~request:(Longnail.Flow.Request.make ~obs:obs_warm ())
      ~measure core tu
  in
  Obs.finish obs_warm;
  let warm_root = Obs.root obs_warm in
  check_bool "warm sweep returns identical points" true (warm = cold);
  List.iter
    (fun stage ->
      check_int ("warm " ^ stage ^ " never runs") 0
        (List.length (Obs.find_spans warm_root stage)))
    Longnail.Flow.stage_names;
  let stats = Longnail.Flow.session_stats ss.Longnail.Dse.ss_flow in
  check_bool "warm sweep hits the target store" true
    ((List.assoc "target" stats).Cache.Store.hits > 0);
  let mstats = Cache.Store.stats ss.Longnail.Dse.ss_measure in
  check_int "measure served from memo" mstats.Cache.Store.misses mstats.Cache.Store.hits

let test_custom_regfile_indexed () =
  (* multi-element custom register file with a computed index: the
     WrCustReg.addr port carries the index in both directions *)
  let src =
    {|
import "RV32I.core_desc"
InstructionSet X_VACC extends RV32I {
  architectural_state {
    register unsigned<32> ACC[4];
  }
  instructions {
    VACC {
      encoding: 7'd4 :: rs2[4:0] :: rs1[4:0] :: 3'b011 :: 5'b00000 :: 7'b0101011;
      behavior: {
        unsigned<2> idx = X[rs1][1:0];
        ACC[idx] = (unsigned<32>)(ACC[idx] + X[rs2]);
      }
    }
  }
}
|}
  in
  let tu = Coredsl.compile ~target:"X_VACC" src in
  let core = Scaiev.Datasheet.vexriscv in
  let c = Longnail.Flow.compile core tu in
  let f = Option.get (Longnail.Flow.find_func c "VACC") in
  (* the config requests a 4-element register *)
  let req = List.hd c.config.Scaiev.Config.regs in
  check_int "4 elements" 4 req.cr_elems;
  (* co-simulate: ACC[2] = 100, rs1 selects index 2, rs2 adds 42 *)
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "VACC") in
  let word = Coredsl.Interp.encode ti [ ("rs1", bv 1); ("rs2", bv 2) ] in
  let resp =
    Longnail.Cosim.run f
      {
        Longnail.Cosim.default_stimulus with
        instr_word = Some word;
        rs1 = Some (bv 0xABCD0002);
        rs2 = Some (bv 42);
        custreg = (fun _ idx -> if idx = 2 then bv 100 else bv 0);
      }
  in
  (match resp.custreg_writes with
  | [ w ] ->
      check_int "write index 2" 2 (Option.get w.cw_index);
      check_str "accumulated" "0x0000008e" (Bitvec.to_hex_string w.cw_data);
      check_bool "valid" true w.cw_valid
  | _ -> Alcotest.fail "expected one ACC write");
  (* and the read side drove the same index *)
  check_bool "read binding exists" true
    (List.exists
       (fun (b : Longnail.Hwgen.iface_binding) -> b.ib_opname = "lil.read_custreg")
       f.cf_hw.Longnail.Hwgen.bindings)

(* ---- extra ISAXes (wiring / serial-chain / priority patterns) ---- *)

let cosim_extra name input expect_fn =
  let e = Option.get (Isax.Extra.find name) in
  let tu = Isax.Extra.compile e in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu e.instr) in
  List.iter
    (fun core ->
      let c = Longnail.Flow.compile core tu in
      let f = Option.get (Longnail.Flow.find_func c e.instr) in
      let fields =
        List.filter_map
          (fun (fi : Coredsl.Tast.field_info) ->
            match fi.fld_name with
            | "rs1" -> Some ("rs1", bv 1)
            | "rs2" -> Some ("rs2", bv 2)
            | "rd" -> Some ("rd", bv 3)
            | _ -> None)
          ti.fields
      in
      let word = Coredsl.Interp.encode ti fields in
      let rs1, rs2 = input in
      let st = Coredsl.Interp.create tu in
      Coredsl.Interp.write_regfile st "X" 1 (bv rs1);
      Coredsl.Interp.write_regfile st "X" 2 (bv rs2);
      Coredsl.Interp.exec_instr st ti ~instr_word:word;
      let golden = Coredsl.Interp.read_regfile st "X" 3 in
      check_int (name ^ " interp") (expect_fn rs1 rs2) (Bitvec.to_int golden);
      let resp =
        Longnail.Cosim.run f
          {
            Longnail.Cosim.default_stimulus with
            instr_word = Some word;
            rs1 = Some (bv rs1);
            rs2 = Some (bv rs2);
          }
      in
      match resp.rd_write with
      | Some (data, true) ->
          check_bool (name ^ " rtl matches on " ^ core.Scaiev.Datasheet.core_name) true
            (Bitvec.equal_value data golden)
      | _ -> Alcotest.fail "no rd write")
    (Scaiev.Core_registry.datasheets ())

let ref_bitrev v _ =
  let r = ref 0 in
  for i = 0 to 31 do
    if v land (1 lsl i) <> 0 then r := !r lor (1 lsl (31 - i))
  done;
  !r

let ref_crc32b crc byte =
  let c = ref (crc lxor (byte land 0xFF)) in
  for _ = 1 to 8 do
    if !c land 1 = 1 then c := (!c lsr 1) lxor 0xEDB88320 else c := !c lsr 1
  done;
  !c

let ref_clz v _ =
  let rec go i = if i < 0 then 32 else if v land (1 lsl i) <> 0 then 31 - i else go (i - 1) in
  go 31

let test_extra_bitrev () = cosim_extra "bitrev" (0xDEADBEEF, 0) ref_bitrev
let test_extra_crc32 () = cosim_extra "crc32b" (0xFFFFFFFF, 0x31) ref_crc32b

let test_extra_clz () =
  List.iter
    (fun v -> cosim_extra "clz" (v, 0) ref_clz)
    [ 0; 1; 0x80000000; 0x00010000 ]

let test_bitrev_is_pure_wiring () =
  (* the bit-reversal datapath must synthesize to zero-area wiring *)
  let e = Option.get (Isax.Extra.find "bitrev") in
  let tu = Isax.Extra.compile e in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let f = Option.get (Longnail.Flow.find_func c "BITREV") in
  let rep = Asic.Synth.synthesize f.cf_hw.Longnail.Hwgen.netlist in
  check_bool
    (Printf.sprintf "comb area %.1f tiny" rep.Asic.Synth.comb_area_um2)
    true
    (rep.Asic.Synth.comb_area_um2 < 30.0)

(* --cycle-time (and --delay uniform:NS) must be a finite positive
   number: "inf" parses as a float but names no clock *)
let test_cycle_time_finite () =
  let kf = Longnail.Knob_flags.default in
  let rejected name v =
    match Longnail.Knob_flags.set kf name (Some v) with
    | Ok _ -> Alcotest.failf "--%s %s unexpectedly accepted" name v
    | Error m -> check_bool (m ^ " says positive number") true (contains m "expects a positive number")
  in
  List.iter (rejected "cycle-time") [ "inf"; "-inf"; "infinity"; "nan"; "1e999"; "0"; "-2" ];
  List.iter (fun v -> rejected "delay" ("uniform:" ^ v)) [ "inf"; "1e999" ];
  (match Longnail.Knob_flags.set kf "cycle-time" (Some "3.5") with
  | Ok t -> check_bool "finite accepted" true (t.knobs.k_cycle_time = Some 3.5)
  | Error m -> Alcotest.fail m)

let () =
  Alcotest.run "longnail"
    [
      ("breadth", [ Alcotest.test_case "all ISAXes x all cores" `Slow test_all_isaxes_all_cores ]);
      ( "modes",
        [
          Alcotest.test_case "mode selection" `Quick test_mode_selection;
          Alcotest.test_case "sqrt pipeline depth" `Quick test_sqrt_pipeline_depth;
        ] );
      ( "config",
        [
          Alcotest.test_case "zol yaml (fig 8)" `Quick test_zol_config_yaml;
          Alcotest.test_case "always entries stage 0" `Quick test_always_entries_stage0;
        ] );
      ( "cosim",
        [
          Alcotest.test_case "dotprod" `Quick test_cosim_dotprod;
          Alcotest.test_case "sbox" `Quick test_cosim_sbox;
          Alcotest.test_case "sparkle" `Quick test_cosim_sparkle;
          Alcotest.test_case "sqrt both variants" `Slow test_cosim_sqrt_both;
          Alcotest.test_case "autoinc store" `Quick test_cosim_autoinc_store;
          Alcotest.test_case "zol always-block" `Quick test_cosim_zol_always;
          Alcotest.test_case "interp oracle = compiled engine" `Quick test_cosim_cross_engine;
          Alcotest.test_case "reused engine = fresh engine" `Quick test_cosim_reuse_equals_fresh;
        ] );
      ( "negative",
        [
          Alcotest.test_case "infeasible schedule" `Quick test_infeasible_schedule_reported;
          Alcotest.test_case "always-block memory read" `Quick
            test_always_block_mem_read_infeasible;
          Alcotest.test_case "inheritance cycle" `Quick test_inheritance_cycle_rejected;
          Alcotest.test_case "solver budget is E0904" `Quick test_solver_budget_code;
        ] );
      ( "outlook",
        [
          Alcotest.test_case "app-class relative cost" `Quick test_outlook_relative_cost_decreases;
          Alcotest.test_case "dse pareto" `Quick test_dse_pareto;
          Alcotest.test_case "dse pareto ties" `Quick test_mark_pareto_ties;
          Alcotest.test_case "dse session reuse" `Quick test_dse_session_reuse;
          Alcotest.test_case "indexed custom regfile" `Quick test_custom_regfile_indexed;
        ] );
      ( "extra-isaxes",
        [
          Alcotest.test_case "bitrev" `Quick test_extra_bitrev;
          Alcotest.test_case "crc32b" `Quick test_extra_crc32;
          Alcotest.test_case "clz" `Quick test_extra_clz;
          Alcotest.test_case "bitrev pure wiring" `Quick test_bitrev_is_pure_wiring;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "ilp vs asap registers" `Quick test_ablation_ilp_vs_asap;
          Alcotest.test_case "physical delay model" `Quick test_ablation_physical_delays;
        ] );
      ("knobs", [ Alcotest.test_case "cycle-time must be finite" `Quick test_cycle_time_finite ]);
    ]
