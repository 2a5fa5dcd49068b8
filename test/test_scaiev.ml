(* Tests for the SCAIE-V layer: sub-interface registry (Table 1), virtual
   datasheets, configuration format (Figures 8/9), and the interface
   generator's validation + integration-plan synthesis. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- Table 1 ---- *)

let test_table1_complete () =
  check_int "16 sub-interfaces" 16 (List.length Scaiev.Iface.table1);
  List.iter
    (fun name -> check_bool name true (List.mem_assoc name Scaiev.Iface.table1))
    [ "RdInstr"; "RdRS1"; "RdRS2"; "RdCustReg"; "RdPC"; "RdMem"; "WrRD"; "WrCustReg.addr";
      "WrCustReg.data"; "WrPC"; "WrMem"; "RdIValid_s"; "RdStall_s"; "RdFlush_s"; "WrStall_s";
      "WrFlush_s" ]

let test_relaxable () =
  check_bool "WrRD" true (List.mem "WrRD" Scaiev.Iface.relaxable);
  check_bool "RdMem" true (List.mem "RdMem" Scaiev.Iface.relaxable);
  check_bool "WrMem" true (List.mem "WrMem" Scaiev.Iface.relaxable);
  check_bool "RdRS1 not relaxable" false (List.mem "RdRS1" Scaiev.Iface.relaxable)

let test_lil_mapping () =
  check_str "read_rs1" "RdRS1" (Option.get (Scaiev.Iface.of_lil_op "lil.read_rs1"));
  check_str "write_pc" "WrPC" (Option.get (Scaiev.Iface.of_lil_op "lil.write_pc"));
  check_bool "comb not an interface" true (Scaiev.Iface.of_lil_op "comb.add" = None)

(* ---- datasheets ---- *)

let test_datasheets () =
  check_int "four paper cores" 4 (List.length (Scaiev.Core_registry.paper_datasheets ()));
  let vex = Scaiev.Datasheet.vexriscv in
  check_int "vex stages" 5 vex.pipeline_stages;
  check_bool "pico is fsm" true Scaiev.Datasheet.picorv32.is_fsm;
  check_bool "orca forwards from wb" true Scaiev.Datasheet.orca.forwarding_from_writeback;
  (* Figure 9's datasheet: instr word stages 1..4, register file 2..4 *)
  let w = Option.get (Scaiev.Datasheet.find vex "RdInstr") in
  check_int "RdInstr earliest" 1 w.earliest;
  check_int "RdInstr latest" 4 (Option.get w.native_latest);
  let w = Option.get (Scaiev.Datasheet.find vex "RdRS1") in
  check_int "RdRS1 earliest" 2 w.earliest;
  (* Table 4 baselines *)
  Alcotest.(check (float 0.1)) "orca fmax" 996.0 Scaiev.Datasheet.orca.base_freq_mhz;
  Alcotest.(check (float 0.1)) "piccolo area" 26098.0 Scaiev.Datasheet.piccolo.base_area_um2

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_datasheet_yaml () =
  let y = Scaiev.Datasheet.to_yaml Scaiev.Datasheet.vexriscv in
  check_bool "mentions core" true (contains y "core: VexRiscv");
  check_bool "has RdMem" true (contains y "RdMem");
  check_bool "has latency field" true (contains y "latency: 1")

(* ---- the core registry ---- *)

let slugs_of l = List.map (fun (d : Scaiev.Core_registry.t) -> d.slug) l

let test_registry_enumeration () =
  Alcotest.(check (list string))
    "paper cores in Table-4 order"
    [ "orca"; "piccolo"; "picorv32"; "vexriscv" ]
    (slugs_of (Scaiev.Core_registry.paper_cores ()));
  Alcotest.(check (list string))
    "all = paper + ported"
    [ "orca"; "piccolo"; "picorv32"; "vexriscv"; "mriscv" ]
    (slugs_of (Scaiev.Core_registry.all ()));
  Alcotest.(check (list string))
    "outlook folds in behind the flag"
    [ "orca"; "piccolo"; "picorv32"; "vexriscv"; "mriscv"; "cva5"; "cva6" ]
    (slugs_of (Scaiev.Core_registry.all ~include_outlook:true ()));
  (* the registry's paper datasheets are the very same values the
     static Datasheet bindings expose (goldens stay byte-identical) *)
  check_bool "paper datasheets are the static ones" true
    (List.for_all2
       (fun a b -> a == b)
       (Scaiev.Core_registry.paper_datasheets ())
       [ Scaiev.Datasheet.orca; Scaiev.Datasheet.piccolo; Scaiev.Datasheet.picorv32;
         Scaiev.Datasheet.vexriscv ])

let test_registry_lookup () =
  let find = Scaiev.Core_registry.find in
  check_bool "case-insensitive slug" true
    ((Option.get (find "VexRiscv")).Scaiev.Core_registry.slug = "vexriscv");
  check_bool "fifth core registered" true
    ((Option.get (find "MRISCV")).Scaiev.Core_registry.kind = Scaiev.Core_registry.Ported);
  check_bool "outlook cores resolvable" true (find "cva6" <> None);
  check_bool "unknown -> None" true (find "rocket" = None);
  (* datasheet -> descriptor bridge *)
  let d = Option.get (Scaiev.Core_registry.of_datasheet Scaiev.Datasheet.piccolo) in
  check_str "of_datasheet" "piccolo" d.Scaiev.Core_registry.slug;
  check_bool "find_datasheet" true
    (Scaiev.Core_registry.find_datasheet "mriscv" = Some Scaiev.Core_registry.mriscv)

let test_registry_suggest_resolve () =
  let suggest = Diag.Choice.suggest ~names:(Scaiev.Core_registry.slugs ~include_outlook:true ()) in
  check_bool "typo suggests vexriscv" true (List.mem "vexriscv" (suggest "vexrisc"));
  check_bool "typo suggests mriscv" true (List.mem "mriscv" (suggest "mricsv"));
  check_bool "prefix suggests picorv32" true (List.mem "picorv32" (suggest "pico"));
  (match Scaiev.Core_registry.resolve "piccolo" with
  | Ok d -> check_str "resolve ok" "piccolo" d.Scaiev.Core_registry.slug
  | Error _ -> Alcotest.fail "resolve of a registered core failed");
  match Scaiev.Core_registry.resolve "vexrsicv" with
  | Ok _ -> Alcotest.fail "resolve of an unknown core succeeded"
  | Error msg ->
      check_bool "message lists every slug" true
        (List.for_all (fun s -> contains msg s)
           (Scaiev.Core_registry.slugs ~include_outlook:true ()));
      check_bool "message suggests" true (contains msg "did you mean")

(* Satellite: the registry-wide well-formedness validator. Every
   registered core must be clean, and each invariant must actually
   fire on a deliberately mistyped datasheet. *)
let test_registry_validator () =
  Alcotest.(check (list (pair string (list string))))
    "every registered core is well-formed" []
    (Scaiev.Core_registry.validate_all ());
  List.iter
    (fun (d : Scaiev.Core_registry.t) ->
      Alcotest.(check (list string))
        (d.slug ^ " validates") [] (Scaiev.Core_registry.validate d))
    (Scaiev.Core_registry.all ~include_outlook:true ());
  (* corrupt one invariant at a time; each must be caught *)
  let base = Scaiev.Core_registry.find_exn "vexriscv" in
  let with_ds ds = { base with Scaiev.Core_registry.datasheet = ds } in
  let violations d = Scaiev.Core_registry.validate d <> [] in
  let ds = base.Scaiev.Core_registry.datasheet in
  check_bool "window past pipeline depth" true
    (violations
       (with_ds { ds with ifaces = [ ("RdRS1", Scaiev.Datasheet.window 2 ~native_latest:9) ] }));
  check_bool "earliest > native_latest" true
    (violations
       (with_ds { ds with ifaces = [ ("WrRD", Scaiev.Datasheet.window 4 ~native_latest:2) ] }));
  check_bool "operand stage at writeback" true
    (violations (with_ds { ds with operand_stage = ds.writeback_stage }));
  check_bool "FSM flag with pipeline stages" true
    (violations (with_ds { ds with is_fsm = true }));
  check_bool "pipelined core without native latest" true
    (violations (with_ds { ds with ifaces = [ ("RdRS1", Scaiev.Datasheet.window 2) ] }));
  check_bool "non-positive area" true (violations (with_ds { ds with base_area_um2 = 0.0 }));
  check_bool "non-positive frequency" true
    (violations (with_ds { ds with base_freq_mhz = -1.0 }));
  check_bool "negative timing" true
    (violations
       { base with
         Scaiev.Core_registry.timing =
           { base.Scaiev.Core_registry.timing with Scaiev.Core_registry.mem_wait = -1 } })

let test_registry_registration_errors () =
  let raises f =
    match f () with
    | () -> false
    | exception Scaiev.Core_registry.Registration_error _ -> true
  in
  let vex = Scaiev.Core_registry.find_exn "vexriscv" in
  check_bool "duplicate slug rejected" true
    (raises (fun () -> Scaiev.Core_registry.register vex));
  check_bool "mistyped datasheet rejected at registration" true
    (raises (fun () ->
         Scaiev.Core_registry.register
           { vex with
             Scaiev.Core_registry.name = "BadCore";
             slug = "badcore";
             datasheet = { vex.Scaiev.Core_registry.datasheet with core_name = "BadCore"; base_area_um2 = -1.0 };
           }));
  check_bool "nothing was registered by the failures" true
    (Scaiev.Core_registry.find "badcore" = None)

(* ---- config format ---- *)

let sample_config =
  {
    Scaiev.Config.regs = [ { cr_name = "COUNT"; cr_width = 32; cr_elems = 1 } ];
    funcs =
      [
        {
          fn_name = "setup_zol";
          fn_kind = `Instruction;
          fn_mask = "-----------------101000000001011";
          fn_entries =
            [
              { se_iface = "RdPC"; se_stage = 1; se_has_valid = false; se_mode = Scaiev.Config.In_pipeline };
              { se_iface = "WrCOUNT.addr"; se_stage = 1; se_has_valid = false; se_mode = Scaiev.Config.In_pipeline };
              { se_iface = "WrCOUNT.data"; se_stage = 1; se_has_valid = true; se_mode = Scaiev.Config.In_pipeline };
            ];
        };
        {
          fn_name = "zol";
          fn_kind = `Always;
          fn_mask = "";
          fn_entries =
            [
              { se_iface = "RdPC"; se_stage = 0; se_has_valid = false; se_mode = Scaiev.Config.Always_mode };
              { se_iface = "WrPC"; se_stage = 0; se_has_valid = true; se_mode = Scaiev.Config.Always_mode };
              { se_iface = "RdCOUNT"; se_stage = 0; se_has_valid = false; se_mode = Scaiev.Config.Always_mode };
              { se_iface = "WrCOUNT.addr"; se_stage = 0; se_has_valid = false; se_mode = Scaiev.Config.Always_mode };
              { se_iface = "WrCOUNT.data"; se_stage = 0; se_has_valid = true; se_mode = Scaiev.Config.Always_mode };
            ];
        };
      ];
  }

let test_config_yaml_figure8 () =
  (* the emitted YAML contains the Figure 8 elements *)
  let y = Scaiev.Config.to_yaml sample_config in
  let contains needle =
    let nl = String.length needle and hl = String.length y in
    let rec go i = i + nl <= hl && (String.sub y i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "register request" true (contains "{register: COUNT, width: 32, elements: 1}");
  check_bool "instruction" true (contains "instruction: setup_zol");
  check_bool "mask" true (contains "-----------------101000000001011");
  check_bool "always" true (contains "always: zol");
  check_bool "has valid" true (contains "has valid: 1")

let test_config_roundtrip () =
  let y = Scaiev.Config.to_yaml sample_config in
  let c = Scaiev.Config.of_yaml y in
  check_int "regs" 1 (List.length c.regs);
  check_int "funcs" 2 (List.length c.funcs);
  let zol = List.find (fun f -> f.Scaiev.Config.fn_name = "zol" ) c.funcs in
  check_bool "always kind" true (zol.fn_kind = `Always);
  check_int "zol entries" 5 (List.length zol.fn_entries);
  let setup = List.find (fun f -> f.Scaiev.Config.fn_name = "setup_zol") c.funcs in
  check_str "mask preserved" "-----------------101000000001011" setup.fn_mask;
  let wrdata = List.find (fun e -> e.Scaiev.Config.se_iface = "WrCOUNT.data") setup.fn_entries in
  check_bool "valid preserved" true wrdata.se_has_valid

let test_mask_string () =
  let tu = Isax.Registry.compile_by_name "zol" in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "setup_zol") in
  let m =
    Scaiev.Config.mask_string ~width:ti.enc_width ~mask:ti.mask ~match_bits:ti.match_bits
  in
  (* Figure 8: uimmL and uimmS are don't-care, funct3=110 (our encoding),
     rd=00000, opcode=0101011 *)
  check_int "width 32" 32 (String.length m);
  check_str "fixed tail" "110000000101011" (String.sub m 17 15);
  check_str "wildcards" "-----------------" (String.sub m 0 17)

(* ---- generator ---- *)

let test_generator_zol () =
  let tu = Isax.Registry.compile_by_name "zol" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  let a = c.Longnail.Flow.adapter in
  check_bool "has always" true a.Scaiev.Generator.has_always_block;
  check_bool "pc write" true a.Scaiev.Generator.uses_pc_write;
  (* START_PC, END_PC, COUNT = 96 bits of custom registers *)
  check_int "custom reg bits" 96 a.Scaiev.Generator.custom_reg_bits;
  check_bool "no scoreboard" true (a.Scaiev.Generator.scoreboard_bits = 0)

let test_generator_decoupled_scoreboard () =
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  check_bool "scoreboard present" true (c.Longnail.Flow.adapter.Scaiev.Generator.scoreboard_bits > 0);
  let c2 =
    Longnail.Flow.compile
      ~request:
        (Longnail.Flow.Request.make ~knobs:(Longnail.Flow.knobs ~hazard_handling:false ()) ())
      Scaiev.Datasheet.vexriscv tu
  in
  check_int "no scoreboard without hazard handling" 0
    c2.Longnail.Flow.adapter.Scaiev.Generator.scoreboard_bits

let test_generator_arbitration () =
  (* autoinc has three instructions writing ADDR: arbitration needed *)
  let tu = Isax.Registry.compile_by_name "autoinc" in
  let c = Longnail.Flow.compile Scaiev.Datasheet.vexriscv tu in
  check_bool "arbitration bits" true
    (c.Longnail.Flow.adapter.Scaiev.Generator.arbitration_mux_bits > 0)

let test_generator_rejects_bad_configs () =
  let core = Scaiev.Datasheet.vexriscv in
  (* always entry in stage 1 *)
  let bad =
    {
      Scaiev.Config.regs = [];
      funcs =
        [
          {
            fn_name = "a";
            fn_kind = `Always;
            fn_mask = "";
            fn_entries =
              [ { se_iface = "RdPC"; se_stage = 1; se_has_valid = false; se_mode = Scaiev.Config.Always_mode } ];
          };
        ];
    }
  in
  (try
     ignore (Scaiev.Generator.generate core bad);
     Alcotest.fail "expected error"
   with Scaiev.Generator.Generate_error _ -> ());
  (* duplicate sub-interface use *)
  let bad2 =
    {
      Scaiev.Config.regs = [];
      funcs =
        [
          {
            fn_name = "i";
            fn_kind = `Instruction;
            fn_mask = String.make 32 '-';
            fn_entries =
              [
                { se_iface = "RdRS1"; se_stage = 2; se_has_valid = false; se_mode = Scaiev.Config.In_pipeline };
                { se_iface = "RdRS1"; se_stage = 3; se_has_valid = false; se_mode = Scaiev.Config.In_pipeline };
              ];
          };
        ];
    }
  in
  (try
     ignore (Scaiev.Generator.generate core bad2);
     Alcotest.fail "expected error"
   with Scaiev.Generator.Generate_error _ -> ());
  (* tightly-coupled on a non-relaxable interface *)
  let bad3 =
    {
      Scaiev.Config.regs = [];
      funcs =
        [
          {
            fn_name = "i";
            fn_kind = `Instruction;
            fn_mask = String.make 32 '-';
            fn_entries =
              [ { se_iface = "RdRS1"; se_stage = 6; se_has_valid = false; se_mode = Scaiev.Config.Tightly_coupled } ];
          };
        ];
    }
  in
  try
    ignore (Scaiev.Generator.generate core bad3);
    Alcotest.fail "expected error"
  with Scaiev.Generator.Generate_error _ -> ()

let () =
  Alcotest.run "scaiev"
    [
      ( "iface",
        [
          Alcotest.test_case "table 1 complete" `Quick test_table1_complete;
          Alcotest.test_case "relaxable interfaces" `Quick test_relaxable;
          Alcotest.test_case "lil mapping" `Quick test_lil_mapping;
        ] );
      ( "datasheet",
        [
          Alcotest.test_case "four paper cores" `Quick test_datasheets;
          Alcotest.test_case "yaml rendering" `Quick test_datasheet_yaml;
        ] );
      ( "registry",
        [
          Alcotest.test_case "enumeration classes" `Quick test_registry_enumeration;
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "suggest + resolve" `Quick test_registry_suggest_resolve;
          Alcotest.test_case "well-formedness validator" `Quick test_registry_validator;
          Alcotest.test_case "registration errors" `Quick test_registry_registration_errors;
        ] );
      ( "config",
        [
          Alcotest.test_case "figure 8 yaml" `Quick test_config_yaml_figure8;
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "mask string" `Quick test_mask_string;
        ] );
      ( "generator",
        [
          Alcotest.test_case "zol integration plan" `Quick test_generator_zol;
          Alcotest.test_case "decoupled scoreboard" `Quick test_generator_decoupled_scoreboard;
          Alcotest.test_case "arbitration" `Quick test_generator_arbitration;
          Alcotest.test_case "validation errors" `Quick test_generator_rejects_bad_configs;
        ] );
    ]
