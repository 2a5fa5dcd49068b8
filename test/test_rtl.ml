(* Tests for the RTL layer: netlist validation, the cycle-accurate
   interpreter (the test oracle), the compiled engine against it, and
   SystemVerilog emission. *)

open Rtl
module Sim = Oracle.Rtl_sim

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

(* A full-width random pattern: all ones one time in eight (carry and
   sign chains), else random bits in every limb of the compiled engine. *)
let random_bv st w =
  let module Bn = Bitvec.Bn in
  if Random.State.int st 8 = 0 then Bitvec.of_bn (u w) (Bn.sub (Bn.pow2 w) Bn.one)
  else begin
    let v = ref Bn.zero in
    for _ = 0 to w / 30 do
      v := Bn.add (Bn.shift_left !v 30) (Bn.of_int (Random.State.bits st))
    done;
    Bitvec.of_bn (u w) !v
  end

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

let test_duplicate_signal_detected () =
  let m =
    {
      Netlist.mod_name = "twice";
      inputs = [ { Netlist.port_name = "i"; port_width = 4; port_signal = "i" } ];
      outputs = [];
      nodes =
        [ const "k" 4 1; Netlist.Comb { out = "k"; width = 4; op = "comb.add"; attrs = []; inputs = [ "i"; "i" ] } ];
    }
  in
  match Netlist.validate m with
  | () -> Alcotest.fail "expected a duplicate-definition error"
  | exception Netlist.Netlist_error msg -> check_bool msg true (contains msg "signal k defined twice")

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
    Rtl.Vcd.trace (Engine.create counter_module) ~cycles:8 ~drive:(fun _ -> [])
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

(* the interpreting oracle and the compiled engine, as engine builders *)
let engines = [ ("interp", Sim.engine); ("compiled", Engine.create) ]

let test_compiled_counter () =
  let s = Engine.create counter_module in
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
  let s = Engine.create m in
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
  let s = Engine.create m in
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
  let trace make = Vcd.trace (make counter_module) ~cycles:12 ~drive:(fun _ -> []) in
  check_traces_equal "counter" (trace Sim.engine) (trace Engine.create)

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
  let trace make = Vcd.trace (make m) ~cycles:16 ~drive in
  check_traces_equal "ADDI" (trace Sim.engine) (trace Engine.create)

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
        (fun (_, make) ->
          let eng = make m in
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
              (Vcd.trace (make m) ~cycles:12 ~drive)
          with
          | None -> ()
          | Some (line, l, r) ->
              Alcotest.failf "%s: reset trace diverges at VCD line %d: reset %S, fresh %S" name
                line l r)
        engines)
    modules

(* widths straddling the limb boundaries of the int arena: 62 is one
   limb, 63/64/65 two, 124 exactly two, 125/130 three; every op must
   match Comb_eval exactly on the operand pairs boundaries get wrong *)
let test_wide_boundary_arith () =
  let module Bn = Bitvec.Bn in
  List.iter
    (fun w ->
      let ops =
        List.map (fun op -> (op, "comb." ^ op, w))
          [ "add"; "sub"; "mul"; "and"; "or"; "xor"; "divu"; "modu"; "divs"; "mods" ]
        @ List.map (fun op -> (op, "comb.icmp_" ^ op, 1))
            [ "eq"; "ne"; "ult"; "ule"; "ugt"; "uge"; "slt"; "sle"; "sgt"; "sge" ]
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
      (* all-ones, the sign bit, one and a carry chain across every limb *)
      let ones = Bitvec.of_bn (u w) (Bn.sub (Bn.pow2 w) Bn.one) in
      let sign = Bitvec.of_bn (u w) (Bn.pow2 (w - 1)) in
      let one = Bitvec.of_int (u w) 1 in
      let low_limb = Bitvec.of_bn (u w) (Bn.sub (Bn.pow2 (min 62 w)) Bn.one) in
      List.iter
        (fun (kname, make) ->
          let s = make m in
          List.iter
            (fun (av, bv_) ->
              Engine.set_input s "a" av;
              Engine.set_input s "b" bv_;
              Engine.eval s;
              List.iter
                (fun (n, op, rw) ->
                  let direct =
                    Ir.Comb_eval.eval ~name:op ~attrs:[] ~ops:[ av; bv_ ] ~result_width:rw
                  in
                  if not (Bitvec.equal_value (Engine.output s ("o_" ^ n)) direct) then
                    Alcotest.failf "width %d, %s on %s engine disagrees with comb_eval on %s, %s" w
                      op kname (Bitvec.to_string av) (Bitvec.to_string bv_))
                ops)
            [ (ones, sign); (sign, ones); (ones, one); (low_limb, one); (sign, sign);
              (one, low_limb) ])
        engines)
    [ 62; 63; 64; 65; 124; 125; 130 ]

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
    (fun (kname, make) ->
      let s = make m in
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

(* native-int ports on both engines: a setter takes the low bits of any
   int (negative ones too), a getter reads the unsigned value, and a port
   wider than 62 bits is refused *)
let test_int_ports () =
  let m =
    {
      Netlist.mod_name = "ports";
      inputs =
        [
          { Netlist.port_name = "a"; port_width = 8; port_signal = "a" };
          { port_name = "b"; port_width = 62; port_signal = "b" };
          { port_name = "wide"; port_width = 65; port_signal = "wide" };
        ];
      outputs =
        [
          { port_name = "sum"; port_width = 8; port_signal = "sum" };
          { port_name = "b_out"; port_width = 62; port_signal = "b" };
        ];
      nodes = [ Netlist.Comb { out = "sum"; width = 8; op = "comb.add"; attrs = []; inputs = [ "a"; "a" ] } ];
    }
  in
  List.iter
    (fun (kname, make) ->
      let s = make m in
      let set_a = Engine.int_input s "a" and set_b = Engine.int_input s "b" in
      let sum = Engine.int_output s "sum" and b_out = Engine.int_output s "b_out" in
      set_a (-1);
      set_b max_int;
      Engine.eval s;
      check_int (kname ^ ": 0xff + 0xff at 8 bits") 0xfe (sum ());
      check_int (kname ^ ": Bitvec view agrees") 0xfe (Bitvec.to_int (Engine.output s "sum"));
      check_int (kname ^ ": 62-bit round trip") max_int (b_out ());
      check_bool (kname ^ ": a 65-bit port is refused") true
        (match ignore (Engine.int_input s "wide" : int -> unit) with () -> false | exception Invalid_argument _ -> true))
    engines

(* after a warm-up on random inputs, 1000 rounds of eval and clock on
   [m]'s compiled engine allocate nothing *)
let check_no_allocation name (m : Netlist.t) =
  let eng = Engine.create m in
  let st = Random.State.make [| Hashtbl.hash name |] in
  List.iter (fun (p : Netlist.port) -> Engine.set_input eng p.port_name (random_bv st p.port_width)) m.inputs;
  for _ = 1 to 10 do
    Engine.eval eng;
    Engine.clock eng
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Engine.eval eng;
    Engine.clock eng
  done;
  let words = Gc.minor_words () -. before in
  if words <> 0. then Alcotest.failf "%s: 1000 cycles allocate %.0f words" name words

(* Every bundled ISAX on every registered core, and a 130-bit module with
   every op but division: eval and clock allocate nothing. The one boxed
   step of the compiled engine, a division or remainder wider than a
   limb, appears in no bundled netlist. *)
let test_no_allocation_per_cycle () =
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      List.iter
        (fun (d : Scaiev.Core_registry.t) ->
          List.iter
            (fun (f : Longnail.Flow.compiled_functionality) ->
              let m = f.cf_hw.Longnail.Hwgen.netlist in
              let name = Printf.sprintf "%s/%s/%s" e.name d.slug f.cf_name in
              let widths = Hashtbl.create 64 in
              List.iter (fun (p : Netlist.port) -> Hashtbl.replace widths p.port_signal p.port_width) m.inputs;
              List.iter (fun n -> Hashtbl.replace widths (Netlist.node_out n) (Netlist.node_width n)) m.nodes;
              List.iter
                (function
                  | Netlist.Comb { op = "comb.divu" | "comb.modu" | "comb.divs" | "comb.mods"; width; inputs; _ }
                    when List.exists (fun i -> Hashtbl.find widths i > 62) inputs || width > 62 ->
                      Alcotest.failf "%s: wide division takes the boxed path" name
                  | _ -> ())
                m.nodes;
              check_no_allocation name m)
            (Longnail.Flow.compile d.datasheet tu).Longnail.Flow.funcs)
        (Scaiev.Core_registry.all ()))
    Isax.Registry.all;
  let w = 130 in
  let comb out width op ?(attrs = []) inputs = Netlist.Comb { out; width; op; attrs; inputs } in
  let binary =
    List.map (fun op -> comb op w ("comb." ^ op) [ "a"; "b" ]) [ "add"; "sub"; "mul"; "and"; "or"; "xor" ]
    @ List.map (fun op -> comb op 1 ("comb.icmp_" ^ op) [ "a"; "b" ]) [ "eq"; "ult"; "sge" ]
    @ List.map (fun op -> comb op w ("comb." ^ op) [ "a"; "k" ]) [ "shl"; "shru"; "shrs" ]
  in
  check_no_allocation "every 130-bit op"
    {
      Netlist.mod_name = "ops130";
      inputs =
        List.map
          (fun (n, pw) -> { Netlist.port_name = n; port_width = pw; port_signal = n })
          [ ("a", w); ("b", w); ("k", 8); ("c", 1) ];
      outputs = [];
      nodes =
        binary
        @ [
            comb "x" 70 "comb.extract" ~attrs:[ ("lowBit", Ir.Mir.A_int 61) ] [ "a" ];
            comb "y" 60 "comb.extract" ~attrs:[ ("lowBit", Ir.Mir.A_int 3) ] [ "b" ];
            comb "z" 13 "comb.extract" ~attrs:[ ("lowBit", Ir.Mir.A_int 60) ] [ "a" ];
            comb "cat" w "comb.concat" [ "x"; "y" ];
            comb "rep" w "comb.replicate" [ "z" ];
            comb "sel" w "comb.mux" [ "eq"; "cat"; "rep" ];
            Netlist.Reg { out = "q"; width = w; next = "sel"; enable = Some "c"; init = None };
          ];
    }

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
   VCD traces on random width-consistent netlists over two w-bit inputs, an
   8-bit shift amount and a 1-bit condition. Each step adds a w-bit signal
   (or a 1-bit compare): a binary op or mux; a shift; a concat of three
   extracts whose low bits may straddle a limb boundary; a replicate of an
   extract; or a register with an optional enable. A final register with
   an enable samples the last signal. *)
let prop_engines_agree =
  let binops =
    [| "comb.add"; "comb.sub"; "comb.mul"; "comb.and"; "comb.or"; "comb.xor";
       "comb.divu"; "comb.modu"; "comb.divs"; "comb.mods";
       "comb.shl"; "comb.shru"; "comb.shrs";
       "comb.icmp_eq"; "comb.icmp_ne"; "comb.icmp_ult"; "comb.icmp_slt"; "comb.icmp_sge";
       "comb.mux"; "concat"; "replicate"; "reg" |]
  in
  QCheck.Test.make ~name:"compiled engine matches interpreter on random netlists" ~count:200
    (QCheck.triple
       (QCheck.oneofl [ 1; 31; 62; 63; 64; 65; 124; 125; 130 ])
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
          (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 1000) (QCheck.int_bound 1000)))
       (QCheck.int_bound 1_000_000))
    (fun (w, picks, seed) ->
      let wide = ref [ "a"; "b" ] and bits = ref [ "c" ] in
      let comb out width op ?(attrs = []) inputs = Netlist.Comb { out; width; op; attrs; inputs } in
      let extract out src lo width =
        comb out width "comb.extract" ~attrs:[ ("lowBit", Ir.Mir.A_int lo) ] [ src ]
      in
      let nodes =
        List.concat
          (List.mapi
             (fun i (opi, x, y) ->
               let op = binops.(opi mod Array.length binops) in
               let pick pool n = List.nth pool (n mod List.length pool) in
               let out = Printf.sprintf "n%d" i in
               let is_cmp = String.length op > 9 && String.sub op 0 9 = "comb.icmp" in
               let nodes =
                 match op with
                 | "comb.mux" -> [ comb out w op [ pick !bits opi; pick !wide x; pick !wide y ] ]
                 | "comb.shl" | "comb.shru" | "comb.shrs" -> [ comb out w op [ pick !wide x; "k" ] ]
                 | "concat" when w >= 3 ->
                     let w1 = 1 + (x mod (w - 2)) in
                     let w2 = 1 + (y mod (w - w1 - 1)) in
                     let parts =
                       List.mapi
                         (fun k pw ->
                           let name = Printf.sprintf "%s_p%d" out k in
                           let lo = ((x * (k + 1)) + y) mod (w - pw + 1) in
                           (name, extract name (pick !wide (x + k)) lo pw))
                         [ w1; w2; w - w1 - w2 ]
                     in
                     List.map snd parts @ [ comb out w "comb.concat" (List.map fst parts) ]
                 | "replicate" ->
                     let divisors = List.filter (fun d -> w mod d = 0) (List.init w succ) in
                     let d = pick divisors x in
                     [ extract (out ^ "_p") (pick !wide y) (x mod (w - d + 1)) d;
                       comb out w "comb.replicate" [ out ^ "_p" ] ]
                 | "reg" ->
                     let enable = if x mod 2 = 0 then None else Some (pick !bits y) in
                     [ Netlist.Reg { out; width = w; next = pick !wide y; enable; init = None } ]
                 | "concat" -> [ comb out w "comb.xor" [ pick !wide x; pick !wide y ] ]
                 | op -> [ comb out (if is_cmp then 1 else w) op [ pick !wide x; pick !wide y ] ]
               in
               if is_cmp then bits := out :: !bits else wide := out :: !wide;
               nodes)
             picks)
      in
      let last = List.hd !wide in
      let m =
        {
          Netlist.mod_name = "rand";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
              { port_name = "k"; port_width = 8; port_signal = "k" };
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
        let st = Random.State.make [| seed; cycle |] in
        let a = random_bv st w in
        (* b = a one time in four, so the compares see equal operands *)
        let b = if Random.State.int st 4 = 0 then a else random_bv st w in
        [ ("a", a); ("b", b); ("k", bv 8 (Random.State.int st 256)); ("c", bv 1 (Random.State.int st 2)) ]
      in
      let trace make = Vcd.trace (make m) ~cycles:6 ~drive in
      Vcd.traces_equal (trace Sim.engine) (trace Engine.create))

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
  List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_sim_matches_comb_eval; prop_engines_agree ]

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
          Alcotest.test_case "signal defined twice" `Quick test_duplicate_signal_detected;
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
          Alcotest.test_case "62-130-bit arithmetic" `Quick test_wide_boundary_arith;
          Alcotest.test_case "65-bit register accumulate" `Quick test_wide_register_accumulate;
          Alcotest.test_case "native-int ports" `Quick test_int_ports;
          Alcotest.test_case "no allocation per cycle on any bundled netlist" `Quick
            test_no_allocation_per_cycle;
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
