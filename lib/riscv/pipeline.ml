(* Structural pipeline simulator with SCAIE-V-style ISAX integration; the
   model and its limitations are described in pipeline.mli. The host side
   of the SCAIE-V port protocol (which ports a stage drives, services and
   samples) is Longnail.Cosim's; this module decides which instruction
   occupies which stage and when the pipe stalls, detaches or commits. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast
module Cosim = Longnail.Cosim

exception Pipeline_error of string

let bv = Arch.bv

type slot = {
  s_pc : int;
  s_word : int;
  s_ti : Tast.tinstr;
  s_rs1 : int;  (* register fields; 0 when absent *)
  s_rs2 : int;
  s_rd : int;
  s_isax : (Cosim.plan * Rtl.Engine.t) option;
  mutable s_rs1v : int;
  mutable s_rs2v : int;
  mutable s_has_operands : bool;
  mutable s_value : int option;
      (* the forwardable rd value: a base instruction's from the operand
         stage on, an ISAX's once its WrRD to a nonzero rd was valid *)
  mutable s_new_pc : Bitvec.t option;  (* ISAX: valid WrPC *)
  mutable s_pending : Cosim.mem_response list;  (* ISAX: RdMem responses in flight *)
  mutable s_vstage : int;  (* virtual stage while held past writeback *)
}

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (* committed architectural state *)
  isaxes : (Cosim.plan * Rtl.Engine.t) list;  (* one per ISAX instruction module *)
  always : (Cosim.plan * Rtl.Engine.t) list;  (* one per always-block module *)
  stages : slot option array;  (* index 1 .. writeback+1; commit from the last *)
  mutable detached : slot list;  (* decoupled units past writeback *)
  mutable fetch_pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
}

let create (compiled : Longnail.Flow.compiled) =
  let core = compiled.Longnail.Flow.core in
  if core.Scaiev.Datasheet.is_fsm then
    raise (Pipeline_error "the structural pipeline models pipelined cores only");
  let modules kind =
    List.filter_map
      (fun (f : Longnail.Flow.compiled_functionality) ->
        if f.cf_kind = kind then
          Some (Cosim.plan f, Rtl.Engine.create f.cf_hw.Longnail.Hwgen.netlist)
        else None)
      compiled.funcs
  in
  {
    compiled;
    st = Interp.create compiled.unit_;
    isaxes = modules `Instruction;
    always = modules `Always;
    stages = Array.make (core.writeback_stage + 2) None;
    detached = [];
    fetch_pc = 0;
    cycles = 0;
    instret = 0;
    halted = false;
  }

let read_gpr t i = Arch.read_gpr t.st i
let write_gpr t i v = Arch.write_gpr t.st i v
let write_pc t v = Arch.write_pc t.st v

let load_program t ?(base = 0) words =
  Arch.load_program t.st ~base words;
  t.fetch_pc <- base

let store_word t addr v = Arch.store_word t.st addr v

(* ---- forwarding network ---- *)

(* youngest in-flight producer of register [r] older than stage [upto]
   that has its value; falls back to the committed register file *)
let forwarded_operand t ~upto r =
  let rec scan i =
    if i >= Array.length t.stages then
      match List.find_opt (fun (d : slot) -> d.s_rd = r && d.s_value <> None) t.detached with
      | Some { s_value = Some v; _ } -> v
      | _ -> read_gpr t r
    else
      match t.stages.(i) with
      | Some { s_rd; s_value = Some v; _ } when s_rd = r -> v
      | _ -> scan (i + 1)
  in
  if r = 0 then 0 else scan upto

(* is there an older in-flight producer of [r] whose value is not ready? *)
let operand_hazard t ~upto r =
  let unfinished (s : slot) = s.s_rd = r && s.s_value = None in
  let rec scan i =
    i < Array.length t.stages
    && ((match t.stages.(i) with Some s -> unfinished s | None -> false) || scan (i + 1))
  in
  r <> 0 && (scan upto || List.exists unfinished t.detached)

(* ---- ISAX module integration: the SCAIE-V host side lives in Cosim ---- *)

(* The host answers for the instruction in [Some slot], whose GPR and PC
   results are captured for the in-order commit, or for the always-block
   tick ([None]), whose WrPC replaces the next fetch. Custom-register and
   memory writes apply in their scheduled stage, as SCAIE-V's custom
   register file does (its hazard logic orders readers); applying them at
   commit instead would let an always-block observe stale state, e.g. ZOL
   missing a just-set COUNT. *)
let host : (t * slot option) Cosim.host =
  {
    custreg = (fun (t, _) reg idx -> (Interp.reg_array t.st reg).(idx));
    mem_read = (fun (t, _) addr _ elems -> Interp.read_mem t.st "MEM" addr elems);
    write_rd =
      (fun (_, s) data valid ->
        match s with
        | Some s when valid && s.s_rd <> 0 -> s.s_value <- Some (Bitvec.to_int data)
        | _ -> ());
    write_pc =
      (fun (t, s) data valid ->
        if valid then
          match s with
          | Some s -> s.s_new_pc <- Some data
          | None -> t.fetch_pc <- Bitvec.to_int data);
    write_custreg =
      (fun (t, _) reg idx data valid ->
        if valid then Arch.write_custreg t.st reg (Option.value ~default:0 idx) data);
    write_mem = (fun (t, _) addr data valid -> if valid then Arch.write_mem t.st addr data);
  }

let drive (s : slot) stage =
  match s.s_isax with
  | Some (plan, engine) ->
      Cosim.drive plan engine ~stage ~pending:s.s_pending (function
        | Cosim.Instr_word -> bv s.s_word
        | Rs1 -> bv s.s_rs1v
        | Rs2 -> bv s.s_rs2v
        | Pc -> bv s.s_pc)
  | None -> ()

let service t (s : slot) stage =
  match s.s_isax with
  | Some (plan, engine) -> s.s_pending <- Cosim.service plan engine ~stage host (t, Some s)
  | None -> ()

(* always-blocks evaluate against the fetch PC and committed state; their
   valid-gated writes apply immediately (Section 3.2). The schedule puts
   every always-block interface in stage 0, so one evaluation of that
   stage is the whole block; an RdMem response (due in stage 1) never
   reaches it, as under Cosim.run_on. *)
let tick_always t =
  List.iter
    (fun (plan, engine) ->
      Cosim.drive plan engine ~stage:0 ~pending:[] (function
        | Cosim.Pc -> bv t.fetch_pc
        | Instr_word | Rs1 | Rs2 -> raise (Pipeline_error "an always-block reads an instruction operand"));
      Rtl.Engine.eval engine;
      ignore (Cosim.service plan engine ~stage:0 host (t, None));
      Rtl.Engine.clock engine)
    t.always

(* ---- base-instruction execution ---- *)

(* produce the forwardable result at the operand stage using the native
   ISS with the forwarded operands installed *)
let base_execute t (s : slot) =
  let iss = Iss.create () in
  if s.s_rs1 <> 0 then Iss.write_reg iss s.s_rs1 s.s_rs1v;
  if s.s_rs2 <> 0 then Iss.write_reg iss s.s_rs2 s.s_rs2v;
  iss.Iss.pc <- s.s_pc;
  (* loads read the committed memory (no store-to-load forwarding) *)
  (match s.s_ti.ti_name with
  | "LB" | "LH" | "LW" | "LBU" | "LHU" ->
      let imm = Iss.sext ((s.s_word lsr 20) land 0xFFF) 11 in
      let addr = (s.s_rs1v + imm) land 0xFFFFFFFF in
      Iss.write_word iss (addr land lnot 3) (Arch.load_word t.st (addr land lnot 3));
      Iss.write_word iss ((addr land lnot 3) + 4) (Arch.load_word t.st ((addr land lnot 3) + 4))
  | _ -> ());
  (try Iss.step_word iss s.s_word with Iss.Unknown_instruction _ -> ());
  s.s_value <- Some (if s.s_rd <> 0 then Iss.read_reg iss s.s_rd else 0)

(* commit the oldest instruction architecturally, in order *)
let commit t (s : slot) =
  t.instret <- t.instret + 1;
  match s.s_isax with
  | Some _ ->
      (* custom-register and memory writes already took effect in their
         scheduled stages; the GPR result commits here in order *)
      Option.iter (write_gpr t s.s_rd) s.s_value
  | None ->
      (* replay through the reference interpreter with the captured
         operands (stores need the architectural memory) *)
      let x = Interp.reg_array t.st "X" in
      let saved =
        List.filter_map
          (fun r -> if r = 0 then None else Some (r, x.(r)))
          [ s.s_rs1; s.s_rs2 ]
      in
      List.iter (fun (r, _) -> x.(r) <- bv (if r = s.s_rs1 then s.s_rs1v else s.s_rs2v)) saved;
      write_pc t s.s_pc;
      Interp.exec_instr t.st s.s_ti ~instr_word:(bv s.s_word);
      List.iter (fun (r, old) -> if r <> s.s_rd then x.(r) <- old) saved

(* One pipeline cycle. Returns false when halted and fully drained. *)
let step t =
  let drained = Array.for_all Option.is_none t.stages && t.detached = [] in
  if t.halted && drained then false
  else begin
    t.cycles <- t.cycles + 1;
    let core = t.compiled.Longnail.Flow.core in
    let opstage = core.Scaiev.Datasheet.operand_stage in
    let last = Array.length t.stages - 1 in
    (* 1. operand fetch and interlock at the operand stage *)
    let stall = ref false in
    (match t.stages.(opstage) with
    | Some s when not s.s_has_operands ->
        (* WAW against detached decoupled writers: block same-rd issue *)
        let waw =
          s.s_rd <> 0
          && List.exists (fun (d : slot) -> d.s_rd = s.s_rd && d.s_value = None) t.detached
        in
        if
          operand_hazard t ~upto:(opstage + 1) s.s_rs1
          || operand_hazard t ~upto:(opstage + 1) s.s_rs2
          || waw
        then stall := true
        else begin
          s.s_rs1v <- forwarded_operand t ~upto:(opstage + 1) s.s_rs1;
          s.s_rs2v <- forwarded_operand t ~upto:(opstage + 1) s.s_rs2;
          s.s_has_operands <- true;
          if s.s_isax = None then base_execute t s
        end
    | _ -> ());
    (* 1b. custom-register data hazards (SCAIE-V hazard handling) *)
    let stall_point = ref (if !stall then opstage else 0) in
    let pending_custreg_writer ~older_than reg =
      let rec in_pipe i =
        i < Array.length t.stages
        &&
        match t.stages.(i) with
        | Some { s_isax = Some (plan, _); _ } when Cosim.writes_custreg plan reg ~from:(i + 1) -> true
        | _ -> in_pipe (i + 1)
      in
      in_pipe (older_than + 1)
      || List.exists
           (fun (d : slot) ->
             match d.s_isax with
             | Some (plan, _) -> Cosim.writes_custreg plan reg ~from:d.s_vstage
             | None -> false)
           t.detached
    in
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some { s_isax = Some (plan, _); _ } ->
          List.iter
            (fun reg ->
              if pending_custreg_writer ~older_than:stage reg then
                stall_point := max !stall_point stage)
            (Cosim.custreg_reads plan ~stage)
      | _ -> ()
    done;
    (* 1c. does the instruction at the end of the pipe extend past it? *)
    let hold_at_end = ref false and detach_now = ref false in
    (match t.stages.(last) with
    | Some ({ s_isax = Some (plan, _); _ } as sl) ->
        (* on arrival (vstage = 0) the pipe stage itself still gets
           serviced this cycle, so the module extends only if it reaches
           strictly beyond; afterwards, hold until the final virtual stage
           has been serviced *)
        let max_stage = Cosim.last_stage plan in
        let more = if sl.s_vstage > 0 then max_stage >= sl.s_vstage else max_stage > last in
        if more then begin
          if (Cosim.func plan).cf_mode = Scaiev.Config.Decoupled then detach_now := true
          else begin
            (* tightly-coupled: the whole core stalls *)
            hold_at_end := true;
            stall_point := last
          end
        end
    | _ -> ());
    let frozen = !stall_point in
    (* 2. drive and evaluate the ISAX modules for every occupied stage *)
    List.iter (fun (plan, engine) -> Cosim.set_stalls plan engine ~frozen_below:frozen) t.isaxes;
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some ({ s_has_operands = true; _ } as s) ->
          drive s (if stage = last && s.s_vstage > 0 then s.s_vstage else stage)
      | Some s when stage <= opstage -> drive s stage
      | _ -> ()
    done;
    List.iter (fun (_, engine) -> Rtl.Engine.eval engine) t.isaxes;
    (* 2a. detached decoupled units keep computing beside the pipe *)
    t.detached <-
      List.filter
        (fun (d : slot) ->
          let plan, engine = Option.get d.s_isax in
          drive d d.s_vstage;
          Rtl.Engine.eval engine;
          service t d d.s_vstage;
          d.s_vstage <- d.s_vstage + 1;
          if d.s_vstage > Cosim.last_stage plan then begin
            (* out-of-order writeback through the scoreboard *)
            Option.iter (write_gpr t d.s_rd) d.s_value;
            false
          end
          else true)
        t.detached;
    (* 2b. service in-pipe stages, oldest first (write-through ordering);
       stalled slots (at or before the freeze point) do not execute —
       except the held end-of-pipe slot, which services its virtual stage
       while its module's tail keeps running *)
    for stage = last downto frozen + 1 do
      match t.stages.(stage) with Some s -> service t s stage | None -> ()
    done;
    if !hold_at_end then begin
      match t.stages.(last) with
      | Some s ->
          let v = if s.s_vstage > 0 then s.s_vstage else last in
          service t s v;
          s.s_vstage <- v + 1
      | None -> ()
    end;
    (* 3. commit / detach from the end of the pipe *)
    let redirect = ref None in
    (match t.stages.(last) with
    | Some _ when !hold_at_end -> ()
    | Some ({ s_isax = Some _; _ } as sl) when !detach_now ->
        sl.s_vstage <- (if sl.s_vstage > 0 then sl.s_vstage else last + 1);
        t.detached <- t.detached @ [ sl ];
        t.instret <- t.instret + 1;
        t.stages.(last) <- None
    | Some s ->
        commit t s;
        (match s.s_isax with
        | Some _ -> Option.iter (fun pc' -> redirect := Some (Bitvec.to_int pc')) s.s_new_pc
        | None ->
            (* the interpreter writes the PC only for taken control
               transfers, a branch to its own address included *)
            if t.st.Interp.pc_written then redirect := Some (Arch.read_pc t.st));
        t.stages.(last) <- None
    | None -> ());
    (* 4. advance: slots at or before the stall point hold; bubbles drain
       behind them *)
    if frozen > 0 then begin
      for stage = last - 1 downto frozen + 1 do
        t.stages.(stage + 1) <- t.stages.(stage);
        t.stages.(stage) <- None
      done
    end
    else begin
      for stage = last - 1 downto 1 do
        t.stages.(stage + 1) <- t.stages.(stage);
        t.stages.(stage) <- None
      done;
      (match !redirect with
      | Some pc' ->
          for i = 1 to last do
            t.stages.(i) <- None
          done;
          t.fetch_pc <- pc';
          t.halted <- false
      | None -> ());
      (* always-blocks observe (and may replace) the next fetch *)
      if not t.halted then tick_always t;
      if not t.halted then begin
        let word = Interp.read_mem t.st "MEM" t.fetch_pc 4 in
        match Interp.decode t.st word with
        | Some ti when ti.ti_name = "EBREAK" -> t.halted <- true
        | Some ti ->
            let field name = Option.value ~default:0 (Arch.field_value ti word name) in
            t.stages.(1) <-
              Some
                {
                  s_pc = t.fetch_pc;
                  s_word = Bitvec.to_int word;
                  s_ti = ti;
                  s_rs1 = field "rs1";
                  s_rs2 = field "rs2";
                  s_rd = field "rd";
                  s_isax =
                    List.find_opt
                      (fun (plan, _) -> (Cosim.func plan).cf_name = ti.ti_name)
                      t.isaxes;
                  s_rs1v = 0;
                  s_rs2v = 0;
                  s_has_operands = false;
                  s_value = None;
                  s_new_pc = None;
                  s_pending = [];
                  s_vstage = 0;
                };
            t.fetch_pc <- (t.fetch_pc + 4) land 0xFFFFFFFF
        | None -> t.halted <- true
      end
    end;
    List.iter (fun (_, engine) -> Rtl.Engine.clock engine) t.isaxes;
    true
  end

let run ?(fuel = 500_000) t =
  Arch.run_with_fuel ~fuel (fun () -> step t);
  t.cycles
