(* program_run: one in-process caller. Each op runs one seeded program on
   VexRiscv through the three engines the CLI `run` command exposes: the
   cost model (Riscv.Machine), the structural pipeline (Riscv.Pipeline)
   and RTL-in-the-loop (Riscv.Rtl_loop) on the default compiled RTL
   engine. The ISAX compiles happen at set-up, so the simulators,
   Rtl.Compiled, the CoreDSL interpreter and Bitvec do all the work. The
   programs differ in ISAX share and datapath width (SQRT_D's 64-bit
   signal takes the engine's Bitvec fallback); each program's size is set
   so no program dominates the run time. *)

open Common

let name = "program_run"
let core = Scaiev.Datasheet.vexriscv
let sp_init = 0x8000
let array_base = 0x1000

type program = {
  label : string;
  isax : string;  (** the bundled ISAX the core is extended with *)
  n : int;  (** loop iterations *)
  source : string;
  array : int list;  (** words stored at [array_base] before the run *)
  expected_a0 : int;
  isax_instrs : int;  (** ISAX instructions the program retires *)
}

(* A seeded loop issuing one ISAX per iteration on xorshift32 operands:
   rs1 = x, rs2 = x >> 11; the results are summed into a0. *)
let loop_source ~instr ~two_operands ~seed ~n =
  Printf.sprintf
    {|
  li a0, %d
  li a1, %d
  li a3, 0
loop:
  slli t0, a0, 13
  xor a0, a0, t0
  srli t0, a0, 17
  xor a0, a0, t0
  slli t0, a0, 5
  xor a0, a0, t0
  srli a2, a0, 11
  .isax %s rs1=a0, %srd=a4
  add a3, a3, a4
  addi a1, a1, -1
  bnez a1, loop
  mv a0, a3
  ebreak
|}
    seed n instr
    (if two_operands then "rs2=a2, " else "")

let mask32 x = x land 0xffffffff

(* The reference: the same loop in OCaml, with the ISAX itself executed
   by the CoreDSL interpreter. *)
let loop_reference tu ~instr ~seed ~n =
  let ti = Option.get (Coredsl.Tast.find_tinstr tu instr) in
  let st = Coredsl.Interp.create tu in
  let u32 = Bitvec.unsigned_ty 32 in
  let word =
    Coredsl.Interp.encode ti
      (List.filter_map
         (fun (f, r) ->
           if List.exists (fun (fi : Coredsl.Tast.field_info) -> fi.fld_name = f) ti.fields then
             Some (f, Bitvec.of_int u32 r)
           else None)
         [ ("rs1", 10); ("rs2", 12); ("rd", 14) ])
  in
  let x = ref seed and acc = ref 0 in
  for _ = 1 to n do
    x := mask32 (!x lxor (!x lsl 13));
    x := !x lxor (!x lsr 17);
    x := mask32 (!x lxor (!x lsl 5));
    Coredsl.Interp.write_regfile st "X" 10 (Bitvec.of_int u32 !x);
    Coredsl.Interp.write_regfile st "X" 12 (Bitvec.of_int u32 (!x lsr 11));
    Coredsl.Interp.exec_instr st ti ~instr_word:word;
    acc := mask32 (!acc + Bitvec.to_int (Coredsl.Interp.read_regfile st "X" 14))
  done;
  !acc

(* Loop sizes, chosen so each program takes a similar share of an op. *)
let sizes = [ ("sum", 160); ("dotp", 56); ("alz", 48); ("sqrt", 12) ]

let make_program units st label =
  let base = List.assoc label sizes in
  let n = base + Random.State.int st (max 1 (base / 4)) in
  (* bit 11 clear: Riscv.Asm's `li` mis-assembles immediates with bit 11
     set (li a1, 2048 loads 0xfffff800) *)
  let seed = (1 + Random.State.int st 0x3fffffff) land lnot 0x800 in
  let loop ~isax ~instr ~two_operands =
    {
      label;
      isax;
      n;
      source = loop_source ~instr ~two_operands ~seed ~n;
      array = [];
      expected_a0 = loop_reference (List.assoc isax units) ~instr ~seed ~n;
      isax_instrs = n;
    }
  in
  match label with
  | "sum" ->
      {
        label;
        isax = "autoinc+zol";
        n;
        source = Riscv.Case_study.isax_program n;
        array = List.init n (fun i -> i + 1);
        expected_a0 = Riscv.Case_study.expected_sum n;
        isax_instrs = n + 2;
      }
  | "dotp" -> loop ~isax:"dotprod" ~instr:"DOTP" ~two_operands:true
  | "alz" -> loop ~isax:"sparkle" ~instr:"ALZ_X" ~two_operands:true
  | _ -> loop ~isax:"sqrt_decoupled" ~instr:"SQRT_D" ~two_operands:false

type loaded = { prog : program; compiled : Longnail.Flow.compiled; words : int list }

type engine_run = { cycles : int; instret : int; secs : float; alloc : float; gprs : int array }

type t = {
  order : loaded array;
  trace : bool;
  max_ops : int option;
  mutable ops : int;
  mutable failed : int;
  mutable runs : (string * (engine_run * engine_run * engine_run)) list;
      (** per checked op: the program and its cost, pipeline and RTL-loop runs *)
  mutable isax_retired : int;  (** ISAX instructions retired by the checked ops *)
}

let setup (env : env) =
  let st = rng ~seed:env.seed ~salt:4 in
  let isaxes = [ "autoinc+zol"; "dotprod"; "sparkle"; "sqrt_decoupled" ] in
  let compiled =
    List.map (fun n -> (n, Longnail.Flow.compile core (Isax.Registry.compile_by_name n))) isaxes
  in
  let units = List.map (fun (n, (c : Longnail.Flow.compiled)) -> (n, c.unit_)) compiled in
  let programs = List.map (fun (l, _) -> make_program units st l) sizes in
  let loaded =
    List.map
      (fun p ->
        let c = List.assoc p.isax compiled in
        let words = Riscv.Asm.assemble ~custom:(Riscv.Machine.isax_encoder c.unit_) p.source in
        { prog = p; compiled = c; words })
      programs
  in
  (* a seeded order over whole rounds of the four programs *)
  let order = Array.concat (List.init 64 (fun _ -> shuffle st (Array.of_list loaded))) in
  announce_ops ~path:name ~seed:env.seed
    (Array.to_list (Array.map (fun l -> Printf.sprintf "%s n=%d\n%s" l.prog.label l.prog.n l.prog.source) order));
  { order; trace = env.trace; max_ops = env.max_ops; ops = 0; failed = 0; runs = []; isax_retired = 0 }

let measure f =
  let a0 = alloc_words () in
  let (cycles, instret, gprs), secs = timed f in
  { cycles; instret; secs; alloc = alloc_words () -. a0; gprs }

let u32 = Bitvec.unsigned_ty 32

let run_cost l =
  measure (fun () ->
      let m = Riscv.Machine.of_compiled l.compiled in
      Riscv.Machine.write_gpr m 2 sp_init;
      Riscv.Machine.load_program m l.words;
      List.iteri (fun i v -> Riscv.Machine.store_word m (array_base + (4 * i)) v) l.prog.array;
      let cycles = Riscv.Machine.run m in
      (cycles, m.Riscv.Machine.instret, Array.init 32 (Riscv.Machine.read_gpr m)))

let run_pipeline l =
  measure (fun () ->
      let p = Riscv.Pipeline.create l.compiled in
      Riscv.Pipeline.load_program p l.words;
      Riscv.Pipeline.write_gpr p 2 sp_init;
      List.iteri (fun i v -> Riscv.Pipeline.store_word p (array_base + (4 * i)) v) l.prog.array;
      let cycles = Riscv.Pipeline.run p in
      (cycles, p.Riscv.Pipeline.instret, Array.init 32 (Riscv.Pipeline.read_gpr p)))

let run_rtl_loop l =
  measure (fun () ->
      let r = Riscv.Rtl_loop.create l.compiled in
      Riscv.Rtl_loop.load_program r l.words;
      (Coredsl.Interp.reg_array r.Riscv.Rtl_loop.st "X").(2) <- Bitvec.of_int u32 sp_init;
      List.iteri
        (fun i v ->
          Coredsl.Interp.write_mem r.Riscv.Rtl_loop.st "MEM" (array_base + (4 * i)) 4 (Bitvec.of_int u32 v))
        l.prog.array;
      let instret = Riscv.Rtl_loop.run r in
      (0, instret, Array.init 32 (Riscv.Rtl_loop.read_gpr r)))

(* ---- traced-run probes of the layers beneath the simulators --------- *)

(* One Interp.exec_instr call, over the programs' static instruction mix. *)
let interp_exec_ns order =
  let calls = ref 0 in
  let (), secs =
    timed (fun () ->
        List.iter
          (fun l ->
            let tu = l.compiled.Longnail.Flow.unit_ in
            let st = Coredsl.Interp.create tu in
            let instrs =
              List.filter_map
                (fun w ->
                  match Coredsl.Interp.decode st (Bitvec.of_int u32 w) with
                  | Some ti when ti.Coredsl.Tast.ti_name <> "EBREAK" -> Some (ti, Bitvec.of_int u32 w)
                  | _ -> None)
                l.words
            in
            for _ = 1 to 200 do
              List.iter
                (fun (ti, w) ->
                  Coredsl.Interp.exec_instr st ti ~instr_word:w;
                  incr calls)
                instrs
            done)
          order)
  in
  1e9 *. secs /. float_of_int (max 1 !calls)

(* Drive one ISAX module's netlist standalone: eval + clock per cycle. *)
let engine_cycles_per_s (c : Longnail.Flow.compiled) =
  let f = List.hd c.funcs in
  let nl = f.Longnail.Flow.cf_hw.Longnail.Hwgen.netlist in
  let eng = Rtl.Engine.create nl in
  let cycles = ref 0 in
  let (), secs =
    timed (fun () ->
        let t0 = now_ns () in
        while since_s t0 < 0.25 do
          List.iter
            (fun (p : Rtl.Netlist.port) ->
              Rtl.Engine.set_input eng p.port_name
                (Bitvec.of_int (Bitvec.unsigned_ty p.port_width) (Hashtbl.hash (p.port_name, !cycles))))
            nl.Rtl.Netlist.inputs;
          Rtl.Engine.eval eng;
          Rtl.Engine.clock eng;
          incr cycles
        done)
  in
  float_of_int !cycles /. secs

let op t =
  let l = t.order.(t.ops mod Array.length t.order) in
  t.ops <- t.ops + 1;
  match (run_cost l, run_pipeline l, run_rtl_loop l) with
  | c, p, r ->
      if c.gprs.(10) <> l.prog.expected_a0 then begin
        t.failed <- t.failed + 1;
        say "perfbench: %s: %s n=%d a0=%d, reference %d" name l.prog.label l.prog.n c.gprs.(10)
          l.prog.expected_a0
      end
      else if c.gprs <> p.gprs || c.gprs <> r.gprs then begin
        t.failed <- t.failed + 1;
        say "perfbench: %s: %s n=%d: the engines disagree on the GPRs" name l.prog.label l.prog.n
      end
      else begin
        t.runs <- (l.prog.label, (c, p, r)) :: t.runs;
        t.isax_retired <- t.isax_retired + l.prog.isax_instrs
      end
  | exception ex ->
      t.failed <- t.failed + 1;
      say "perfbench: %s: %s raised %s" name l.prog.label (Printexc.to_string ex)

let work t ~until = work_until ~until ~max_ops:t.max_ops ~count:(fun () -> t.ops) (fun () -> op t)

let finish t =
  (* end on a whole round, so every run weighs each program alike *)
  while t.ops mod List.length sizes <> 0 && below_max t.max_ops t.ops do
    op t
  done;
  let pick f = List.map (fun (l, runs) -> (l, f runs)) t.runs in
  let cost = pick (fun (c, _, _) -> c) and pipe = pick (fun (_, p, _) -> p) in
  let rtl = pick (fun (_, _, r) -> r) in
  (* each program is an op class and weighs the same whatever its seeded
     size: the harmonic mean over programs of the rate at each program's
     class time *)
  let per_program_rate work runs =
    let rates =
      List.filter_map
        (fun label ->
          match List.filter (fun (l, _) -> l = label) runs with
          | [] -> None
          | rs ->
              (* a program's work is the same on every op of a run *)
              Some (class_time (List.map (fun (_, r) -> r.secs) rs) /. float_of_int (work (snd (List.hd rs)))))
        (List.map fst sizes)
    in
    ratio (float_of_int (List.length rates)) (sum rates)
  in
  let cost_r = List.map snd cost and pipe_r = List.map snd pipe and rtl_r = List.map snd rtl in
  let total f rs = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let secs rs = sum (List.map (fun r -> r.secs) rs) in
  let instret rs = total (fun r -> r.instret) rs and cycles rs = total (fun r -> r.cycles) rs in
  let alloc rs = sum (List.map (fun r -> r.alloc) rs) in
  let layer =
    if not t.trace then []
    else
      let by_isax n = (List.find (fun l -> l.prog.isax = n) (Array.to_list t.order)).compiled in
      [
        m "coredsl.interp_exec_ns" "ns" (interp_exec_ns (Array.to_list (Array.sub t.order 0 4)));
        m "rtl.engine_cycles_per_s.DOTP" "1/s" (engine_cycles_per_s (by_isax "dotprod"));
        m "rtl.engine_cycles_per_s.SQRT_D" "1/s" (engine_cycles_per_s (by_isax "sqrt_decoupled"));
        m "riscv.cost_cpi" "cycles/instr" (ratio (cycles cost_r) (instret cost_r));
        m "riscv.pipeline_cpi" "cycles/instr" (ratio (cycles pipe_r) (instret pipe_r));
        m "riscv.isax_instr_share" "ratio" (ratio (float_of_int t.isax_retired) (instret cost_r));
        m "riscv.cost.alloc_words_per_instr" "words" (ratio (alloc cost_r) (instret cost_r));
        m "riscv.pipeline.alloc_words_per_instr" "words" (ratio (alloc pipe_r) (instret pipe_r));
        m "riscv.rtl_loop.alloc_words_per_instr" "words" (ratio (alloc rtl_r) (instret rtl_r));
      ]
  in
  {
    attempted = t.ops;
    failed = t.failed;
    e2e =
      [
        m "sim_cost_instr_per_s" "1/s" (per_program_rate (fun r -> r.instret) cost);
        m "sim_pipeline_cycles_per_s" "1/s" (per_program_rate (fun r -> r.cycles) pipe);
        m "sim_rtl_loop_instr_per_s" "1/s" (per_program_rate (fun r -> r.instret) rtl);
      ];
    layer;
  }

let teardown (_ : t) = ()
