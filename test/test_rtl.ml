(* Tests for the RTL layer: netlist validation, the cycle-accurate
   simulator, and SystemVerilog emission. *)

open Rtl

let u w = Bitvec.unsigned_ty w
let bv w v = Bitvec.of_int (u w) v
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let const name w v =
  Netlist.Comb { out = name; width = w; op = "hw.constant"; attrs = [ ("value", Ir.Mir.A_bv (bv w v)) ]; inputs = [] }

(* a 4-bit counter: c <= c + 1 *)
let counter_module =
  {
    Netlist.mod_name = "counter";
    inputs = [];
    outputs = [ { port_name = "count"; port_width = 4; port_signal = "c" } ];
    nodes =
      [
        const "one" 4 1;
        Netlist.Comb { out = "next"; width = 4; op = "comb.add"; attrs = []; inputs = [ "c"; "one" ] };
        Netlist.Reg { out = "c"; width = 4; next = "next"; enable = None; init = Some (bv 4 0) };
      ];
  }

let test_sim_counter () =
  let s = Sim.create counter_module in
  for expect = 0 to 20 do
    Sim.eval s;
    check_int (Printf.sprintf "count at %d" expect) (expect mod 16)
      (Bitvec.to_int (Sim.output s "count"));
    Sim.clock s
  done

let test_sim_stall_enable () =
  (* register with an enable driven by an input *)
  let m =
    {
      Netlist.mod_name = "stallable";
      inputs =
        [
          { Netlist.port_name = "d"; port_width = 8; port_signal = "d" };
          { port_name = "en"; port_width = 1; port_signal = "en" };
        ];
      outputs = [ { port_name = "q"; port_width = 8; port_signal = "q" } ];
      nodes = [ Netlist.Reg { out = "q"; width = 8; next = "d"; enable = Some "en"; init = None } ];
    }
  in
  let s = Sim.create m in
  Sim.cycle s [ ("d", bv 8 0xAA); ("en", bv 1 1) ];
  Sim.eval s;
  check_int "loaded" 0xAA (Bitvec.to_int (Sim.output s "q"));
  Sim.cycle s [ ("d", bv 8 0x55); ("en", bv 1 0) ];
  Sim.eval s;
  check_int "stalled" 0xAA (Bitvec.to_int (Sim.output s "q"));
  Sim.cycle s [ ("d", bv 8 0x55); ("en", bv 1 1) ];
  Sim.eval s;
  check_int "released" 0x55 (Bitvec.to_int (Sim.output s "q"))

let test_sim_rom () =
  let m =
    {
      Netlist.mod_name = "rom";
      inputs = [ { Netlist.port_name = "i"; port_width = 2; port_signal = "i" } ];
      outputs = [ { port_name = "o"; port_width = 8; port_signal = "o" } ];
      nodes = [ Netlist.Rom { out = "o"; width = 8; table = [| bv 8 10; bv 8 20; bv 8 30; bv 8 40 |]; index = "i" } ];
    }
  in
  let s = Sim.create m in
  List.iter
    (fun (i, expect) ->
      Sim.set_input s "i" (bv 2 i);
      Sim.eval s;
      check_int "rom lookup" expect (Bitvec.to_int (Sim.output s "o")))
    [ (0, 10); (1, 20); (2, 30); (3, 40) ]

let test_comb_cycle_detected () =
  let m =
    {
      Netlist.mod_name = "loopy";
      inputs = [];
      outputs = [];
      nodes =
        [
          Netlist.Comb { out = "a"; width = 1; op = "comb.xor"; attrs = []; inputs = [ "b"; "b" ] };
          Netlist.Comb { out = "b"; width = 1; op = "comb.xor"; attrs = []; inputs = [ "a"; "a" ] };
        ];
    }
  in
  try
    Netlist.validate m;
    Alcotest.fail "expected cycle error"
  with Netlist.Netlist_error _ -> ()

let test_undefined_signal_detected () =
  let m =
    {
      Netlist.mod_name = "dangling";
      inputs = [];
      outputs = [ { Netlist.port_name = "o"; port_width = 1; port_signal = "nowhere" } ];
      nodes = [];
    }
  in
  try
    Netlist.validate m;
    Alcotest.fail "expected undefined signal"
  with Netlist.Netlist_error _ -> ()

let test_stats () =
  let st = Netlist.stats counter_module in
  check_int "regs" 1 st.Netlist.n_registers;
  check_int "reg bits" 4 st.Netlist.register_bits;
  check_int "combs" 2 st.Netlist.n_comb_nodes

let test_sv_emission () =
  let sv = Sv_emit.emit counter_module in
  check_bool "module header" true (contains sv "module counter(");
  check_bool "always_ff" true (contains sv "always_ff @(posedge clk)");
  check_bool "reset value" true (contains sv "if (rst)");
  check_bool "assign" true (contains sv "assign next = c + one;");
  check_bool "endmodule" true (contains sv "endmodule")

let test_sv_generated_isax () =
  (* SV emission of a real generated module resembles Figure 5d *)
  let tu = Coredsl.compile_rv32i () in
  let core = Scaiev.Datasheet.vexriscv in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let f = Longnail.Flow.compile_functionality core tu (`Instr addi) in
  let sv = f.Longnail.Flow.cf_sv in
  check_bool "module named ADDI" true (contains sv "module ADDI(");
  check_bool "instr word port" true (contains sv "instr_word_");
  check_bool "rs1 port" true (contains sv "rs1_");
  check_bool "result port" true (contains sv "res_");
  check_bool "no unmapped ops" true (not (contains sv "lil."))

let test_vcd_trace () =
  let vcd =
    Rtl.Vcd.trace counter_module ~cycles:8 ~drive:(fun _ -> [])
  in
  check_bool "header" true (contains vcd "$timescale 1ns $end");
  check_bool "module scope" true (contains vcd "$scope module counter $end");
  check_bool "declares count wire" true (contains vcd "$var wire 4");
  check_bool "has time marks" true (contains vcd "#0\n");
  check_bool "has vector changes" true (contains vcd "b0001 ");
  (* the counter value changes every cycle: at least 8 time marks *)
  let marks = List.length (String.split_on_char '#' vcd) - 1 in
  check_bool "8 time steps" true (marks >= 8)

(* ---- compiled engine ---- *)

let engines = [ ("interp", Engine.Interp); ("compiled", Engine.Compiled) ]

let test_compiled_counter () =
  let s = Engine.create ~kind:Engine.Compiled counter_module in
  for expect = 0 to 20 do
    Engine.eval s;
    check_int (Printf.sprintf "count at %d" expect) (expect mod 16)
      (Bitvec.to_int (Engine.output s "count"));
    Engine.clock s
  done

let test_compiled_stall_enable () =
  let m =
    {
      Netlist.mod_name = "stallable";
      inputs =
        [
          { Netlist.port_name = "d"; port_width = 8; port_signal = "d" };
          { port_name = "en"; port_width = 1; port_signal = "en" };
        ];
      outputs = [ { port_name = "q"; port_width = 8; port_signal = "q" } ];
      nodes = [ Netlist.Reg { out = "q"; width = 8; next = "d"; enable = Some "en"; init = None } ];
    }
  in
  let s = Engine.create ~kind:Engine.Compiled m in
  Engine.cycle s [ ("d", bv 8 0xAA); ("en", bv 1 1) ];
  Engine.eval s;
  check_int "loaded" 0xAA (Bitvec.to_int (Engine.output s "q"));
  Engine.cycle s [ ("d", bv 8 0x55); ("en", bv 1 0) ];
  Engine.eval s;
  check_int "stalled" 0xAA (Bitvec.to_int (Engine.output s "q"));
  Engine.cycle s [ ("d", bv 8 0x55); ("en", bv 1 1) ];
  Engine.eval s;
  check_int "released" 0x55 (Bitvec.to_int (Engine.output s "q"))

let test_compiled_rom () =
  let m =
    {
      Netlist.mod_name = "rom";
      inputs = [ { Netlist.port_name = "i"; port_width = 2; port_signal = "i" } ];
      outputs = [ { port_name = "o"; port_width = 8; port_signal = "o" } ];
      nodes = [ Netlist.Rom { out = "o"; width = 8; table = [| bv 8 10; bv 8 20; bv 8 30; bv 8 40 |]; index = "i" } ];
    }
  in
  let s = Engine.create ~kind:Engine.Compiled m in
  List.iter
    (fun (i, expect) ->
      Engine.set_input s "i" (bv 2 i);
      Engine.eval s;
      check_int "rom lookup" expect (Bitvec.to_int (Engine.output s "o")))
    [ (0, 10); (1, 20); (2, 30); (3, 40) ]

let check_traces_equal name a b =
  match Vcd.first_divergence a b with
  | None -> ()
  | Some (line, l, r) ->
      Alcotest.failf "%s: engine traces diverge at VCD line %d: interp %S, compiled %S" name
        line l r

let test_cross_engine_vcd_counter () =
  let trace kind = Vcd.trace ~engine:kind counter_module ~cycles:12 ~drive:(fun _ -> []) in
  check_traces_equal "counter" (trace Engine.Interp) (trace Engine.Compiled)

(* the generated ISAX modules exercise extract/concat/mux/rom decoding
   paths absent from the handwritten fixtures *)
let test_cross_engine_vcd_isax () =
  let tu = Coredsl.compile_rv32i () in
  let core = Scaiev.Datasheet.vexriscv in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let f = Longnail.Flow.compile_functionality core tu (`Instr addi) in
  let m = f.Longnail.Flow.cf_hw.Longnail.Hwgen.netlist in
  let drive cycle =
    List.map
      (fun (p : Netlist.port) ->
        (p.port_name, Bitvec.of_int (u p.port_width) (Hashtbl.hash (p.port_name, cycle))))
      m.Netlist.inputs
  in
  let trace kind = Vcd.trace ~engine:kind m ~cycles:16 ~drive in
  check_traces_equal "ADDI" (trace Engine.Interp) (trace Engine.Compiled)

(* [Engine.reset] after random cycles: the VCD trace of the reset engine
   equals a fresh engine's, on both kinds, for the counter and every
   functionality of every bundled ISAX on VexRiscv *)
let test_reset_trace_equals_fresh () =
  let random_inputs (m : Netlist.t) seed =
    List.map
      (fun (p : Netlist.port) ->
        (p.port_name, Bitvec.of_int (u p.port_width) (Hashtbl.hash (p.port_name, seed))))
      m.Netlist.inputs
  in
  let trace_on eng (m : Netlist.t) ~cycles ~drive =
    let t = Vcd.create ~module_name:m.mod_name in
    Vcd.watch_module t m;
    for cycle = 0 to cycles - 1 do
      List.iter (fun (n, v) -> Engine.set_input eng n v) (drive cycle);
      Engine.eval eng;
      Vcd.sample t eng;
      Engine.clock eng
    done;
    Vcd.render t
  in
  let core = Scaiev.Datasheet.vexriscv in
  let modules =
    ("counter", counter_module)
    :: List.concat_map
         (fun (e : Isax.Registry.entry) ->
           let c = Longnail.Flow.compile core (Isax.Registry.compile e) in
           List.map
             (fun (f : Longnail.Flow.compiled_functionality) ->
               (e.name ^ "/" ^ f.cf_name, f.cf_hw.Longnail.Hwgen.netlist))
             c.Longnail.Flow.funcs)
         Isax.Registry.all
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun kind ->
          let eng = Engine.create ~kind m in
          for cycle = 1 to 7 + (Hashtbl.hash name mod 9) do
            List.iter (fun (n, v) -> Engine.set_input eng n v) (random_inputs m (-cycle));
            Engine.eval eng;
            Engine.clock eng
          done;
          Engine.reset eng;
          let drive = random_inputs m in
          match
            Vcd.first_divergence
              (trace_on eng m ~cycles:12 ~drive)
              (Vcd.trace ~engine:kind m ~cycles:12 ~drive)
          with
          | None -> ()
          | Some (line, l, r) ->
              Alcotest.failf "%s: reset trace diverges at VCD line %d: reset %S, fresh %S" name
                line l r)
        [ Engine.Compiled; Engine.Interp ])
    modules

(* widths straddling the int-arena limit: 62 runs on the unboxed path,
   63/64/65 on the Bitvec fallback — both must match Comb_eval exactly *)
let test_wide_boundary_arith () =
  let module Bn = Bitvec.Bn in
  List.iter
    (fun w ->
      let ops =
        [ ("add", "comb.add", w); ("sub", "comb.sub", w); ("mul", "comb.mul", w);
          ("xor", "comb.xor", w); ("divu", "comb.divu", w); ("mods", "comb.mods", w);
          ("ult", "comb.icmp_ult", 1); ("slt", "comb.icmp_slt", 1) ]
      in
      let m =
        {
          Netlist.mod_name = "wide";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
            ];
          outputs =
            List.map
              (fun (n, _, rw) -> { Netlist.port_name = "o_" ^ n; port_width = rw; port_signal = "o_" ^ n })
              ops;
          nodes =
            List.map
              (fun (n, op, rw) ->
                Netlist.Comb { out = "o_" ^ n; width = rw; op; attrs = []; inputs = [ "a"; "b" ] })
              ops;
        }
      in
      (* all-ones and the sign bit: the values the boundary gets wrong *)
      let av = Bitvec.of_bn (u w) (Bn.sub (Bn.pow2 w) Bn.one) in
      let bv_ = Bitvec.of_bn (u w) (Bn.pow2 (w - 1)) in
      List.iter
        (fun (kname, kind) ->
          let s = Engine.create ~kind m in
          Engine.set_input s "a" av;
          Engine.set_input s "b" bv_;
          Engine.eval s;
          List.iter
            (fun (n, op, rw) ->
              let direct =
                Ir.Comb_eval.eval ~name:op ~attrs:[] ~ops:[ av; bv_ ] ~result_width:rw
              in
              if not (Bitvec.equal_value (Engine.output s ("o_" ^ n)) direct) then
                Alcotest.failf "width %d, %s on %s engine disagrees with comb_eval" w op kname)
            ops)
        engines)
    [ 62; 63; 64; 65 ]

(* a wide accumulator register: the staged-commit path of the compiled
   engine must wrap at 2^65 exactly like the interpreter *)
let test_wide_register_accumulate () =
  let module Bn = Bitvec.Bn in
  let w = 65 in
  let m =
    {
      Netlist.mod_name = "acc65";
      inputs = [ { Netlist.port_name = "a"; port_width = w; port_signal = "a" } ];
      outputs = [ { port_name = "acc"; port_width = w; port_signal = "acc" } ];
      nodes =
        [
          Netlist.Comb { out = "next"; width = w; op = "comb.add"; attrs = []; inputs = [ "acc"; "a" ] };
          Netlist.Reg { out = "acc"; width = w; next = "next"; enable = None; init = Some (Bitvec.zero (u w)) };
        ];
    }
  in
  let step = Bitvec.of_bn (u w) (Bn.pow2 64) in
  List.iter
    (fun (kname, kind) ->
      let s = Engine.create ~kind m in
      Engine.set_input s "a" step;
      for _ = 1 to 3 do
        Engine.eval s;
        Engine.clock s
      done;
      Engine.eval s;
      (* 3 * 2^64 wraps to 2^64 at 65 bits *)
      let got = Bitvec.to_bn (Engine.output s "acc") in
      if Bn.to_string got <> Bn.to_string (Bn.pow2 64) then
        Alcotest.failf "%s engine: 65-bit accumulator holds %s, want 2^64" kname
          (Bn.to_string got))
    engines

let test_backend_name_parse () =
  (match Backend.of_string "v201" with
  | Error m -> check_bool "did-you-mean v2001" true (contains m "did you mean 'v2001'")
  | Ok _ -> Alcotest.fail "expected error");
  check_bool "backend sv" true (Backend.of_string "sv" = Ok Backend.Sv);
  check_bool "backend v2001" true (Backend.of_string "v2001" = Ok Backend.V2001);
  check_bool "exts" true (Backend.file_ext Backend.Sv = "sv" && Backend.file_ext Backend.V2001 = "v")

(* ---- Verilog-2001 backend ---- *)

let test_v2001_emission () =
  let v = V2001_emit.emit counter_module in
  check_bool "module header" true (contains v "module counter(");
  check_bool "always @(posedge clk)" true (contains v "always @(posedge clk)");
  check_bool "reset value" true (contains v "if (rst)");
  check_bool "assign" true (contains v "assign next = c + one;");
  check_bool "no always_ff" true (not (contains v "always_ff"));
  check_bool "no always_comb" true (not (contains v "always_comb"));
  check_bool "no logic decls" true (not (contains v "logic"));
  check_bool "own output lints clean" true (V2001_emit.lint v = []);
  check_bool "backend dispatch" true (Backend.emit Backend.V2001 counter_module = v);
  check_bool "sv backend unchanged" true (Backend.emit Backend.Sv counter_module = Sv_emit.emit counter_module)

let test_v2001_lint_catches_sv () =
  match V2001_emit.lint "module m;\nalways_comb begin\nend\nendmodule\n" with
  | [ msg ] ->
      check_bool "names keyword" true (contains msg "always_comb");
      check_bool "names line" true (contains msg "line 2")
  | other -> Alcotest.failf "expected one lint hit, got %d" (List.length other)

let test_v2001_generated_isax () =
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let f = Longnail.Flow.compile_functionality Scaiev.Datasheet.vexriscv tu (`Instr addi) in
  let v = Backend.emit Backend.V2001 f.Longnail.Flow.cf_hw.Longnail.Hwgen.netlist in
  check_bool "module named ADDI" true (contains v "module ADDI(");
  check_bool "lints clean" true (V2001_emit.lint v = [])

(* property: the compiled engine and the interpreter produce byte-identical
   VCD traces on random width-consistent netlists (chains of binary ops and
   muxes over two w-bit inputs, a 1-bit condition, and a final register) *)
let prop_engines_agree =
  let binops =
    [| "comb.add"; "comb.sub"; "comb.mul"; "comb.and"; "comb.or"; "comb.xor";
       "comb.divu"; "comb.modu"; "comb.divs"; "comb.mods";
       "comb.shl"; "comb.shru"; "comb.shrs";
       "comb.icmp_eq"; "comb.icmp_ult"; "comb.icmp_slt"; "comb.mux" |]
  in
  QCheck.Test.make ~name:"compiled engine matches interpreter on random netlists" ~count:80
    (QCheck.triple
       (QCheck.oneofl [ 1; 8; 31; 32; 62; 63; 64; 65 ])
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
          (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 1000) (QCheck.int_bound 1000)))
       (QCheck.int_bound 1_000_000))
    (fun (w, picks, seed) ->
      let wide = ref [ "a"; "b" ] and bits = ref [ "c" ] in
      let nodes =
        List.mapi
          (fun i (opi, x, y) ->
            let op = binops.(opi mod Array.length binops) in
            (* Comb_eval (the reference semantics for BOTH engines) raises
               when a shift amount exceeds the native int range, so shifts
               only make sense while operands fit in an int *)
            let op =
              match op with
              | ("comb.shl" | "comb.shru" | "comb.shrs") when w > 62 -> "comb.xor"
              | op -> op
            in
            let pick pool n = List.nth pool (n mod List.length pool) in
            let out = Printf.sprintf "n%d" i in
            let is_cmp = String.length op > 9 && String.sub op 0 9 = "comb.icmp" in
            let node =
              if op = "comb.mux" then
                Netlist.Comb
                  { out; width = w; op; attrs = [];
                    inputs = [ pick !bits opi; pick !wide x; pick !wide y ] }
              else
                Netlist.Comb
                  { out; width = (if is_cmp then 1 else w); op; attrs = [];
                    inputs = [ pick !wide x; pick !wide y ] }
            in
            if is_cmp then bits := out :: !bits else wide := out :: !wide;
            node)
          picks
      in
      let last = List.hd !wide in
      let m =
        {
          Netlist.mod_name = "rand";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
              { port_name = "c"; port_width = 1; port_signal = "c" };
            ];
          outputs = [ { port_name = "q"; port_width = w; port_signal = "q" } ];
          nodes =
            nodes
            @ [ Netlist.Reg { out = "q"; width = w; next = last; enable = Some "c"; init = Some (Bitvec.zero (u w)) } ];
        }
      in
      Netlist.validate m;
      let drive cycle =
        [
          ("a", Bitvec.of_int (u w) (Hashtbl.hash (seed, cycle, "a")));
          ("b", Bitvec.of_int (u w) (Hashtbl.hash (seed, cycle, "b")));
          ("c", Bitvec.of_int (u 1) (Hashtbl.hash (seed, cycle, "c")));
        ]
      in
      let trace kind = Vcd.trace ~engine:kind m ~cycles:6 ~drive in
      Vcd.traces_equal (trace Engine.Interp) (trace Engine.Compiled))

(* property: the simulator agrees with direct Comb_eval on random two-input
   expressions *)
let prop_sim_matches_comb_eval =
  QCheck.Test.make ~name:"sim matches comb_eval" ~count:200
    (QCheck.triple (QCheck.int_bound 0xFFFF) (QCheck.int_bound 0xFFFF)
       (QCheck.oneofl [ "comb.add"; "comb.sub"; "comb.mul"; "comb.and"; "comb.or"; "comb.xor"; "comb.icmp_ult" ]))
    (fun (a, b, op) ->
      let w = 16 in
      let rw = if op = "comb.icmp_ult" then 1 else w in
      let m =
        {
          Netlist.mod_name = "t";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
            ];
          outputs = [ { port_name = "o"; port_width = rw; port_signal = "o" } ];
          nodes = [ Netlist.Comb { out = "o"; width = rw; op; attrs = []; inputs = [ "a"; "b" ] } ];
        }
      in
      let s = Sim.create m in
      Sim.set_input s "a" (bv w a);
      Sim.set_input s "b" (bv w b);
      Sim.eval s;
      let direct = Ir.Comb_eval.eval ~name:op ~attrs:[] ~ops:[ bv w a; bv w b ] ~result_width:rw in
      Bitvec.equal_value (Sim.output s "o") direct)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_sim_matches_comb_eval; prop_engines_agree ]

let () =
  Alcotest.run "rtl"
    [
      ( "sim",
        [
          Alcotest.test_case "counter" `Quick test_sim_counter;
          Alcotest.test_case "stall enable" `Quick test_sim_stall_enable;
          Alcotest.test_case "rom" `Quick test_sim_rom;
          Alcotest.test_case "vcd trace" `Quick test_vcd_trace;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "comb cycle detected" `Quick test_comb_cycle_detected;
          Alcotest.test_case "undefined signal" `Quick test_undefined_signal_detected;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "engine",
        [
          Alcotest.test_case "compiled counter" `Quick test_compiled_counter;
          Alcotest.test_case "compiled stall enable" `Quick test_compiled_stall_enable;
          Alcotest.test_case "compiled rom" `Quick test_compiled_rom;
          Alcotest.test_case "cross-engine vcd (counter)" `Quick test_cross_engine_vcd_counter;
          Alcotest.test_case "cross-engine vcd (generated ISAX)" `Quick
            test_cross_engine_vcd_isax;
          Alcotest.test_case "reset engine traces like a fresh one" `Quick
            test_reset_trace_equals_fresh;
          Alcotest.test_case "62/63/64/65-bit arithmetic" `Quick test_wide_boundary_arith;
          Alcotest.test_case "65-bit register accumulate" `Quick test_wide_register_accumulate;
        ] );
      ( "sv",
        [
          Alcotest.test_case "counter emission" `Quick test_sv_emission;
          Alcotest.test_case "generated ISAX module" `Quick test_sv_generated_isax;
        ] );
      ( "v2001",
        [
          Alcotest.test_case "counter emission" `Quick test_v2001_emission;
          Alcotest.test_case "backend name parsing" `Quick test_backend_name_parse;
          Alcotest.test_case "lint catches SV keywords" `Quick test_v2001_lint_catches_sv;
          Alcotest.test_case "generated ISAX module" `Quick test_v2001_generated_isax;
        ] );
      ("properties", qcheck_cases);
    ]
