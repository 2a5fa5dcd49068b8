(* Structural pipeline simulator with SCAIE-V-style ISAX integration; the
   model and its limitations are described in pipeline.mli. The host side
   of the SCAIE-V port protocol (which ports a stage drives, services and
   samples) is Longnail.Cosim's; this module decides which instruction
   occupies which stage and when the pipe stalls, detaches or commits. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast
module Cosim = Longnail.Cosim

let bv = Arch.bv

type slot = {
  s_pc : int;
  s_word : int;
  s_ti : Tast.tinstr;
  s_rs1 : int;  (* register fields; 0 when absent *)
  s_rs2 : int;
  s_rd : int;
  s_isax : (Cosim.plan * Rtl.Engine.t) option;
  s_mem : bool;  (* a base load or store *)
  mutable s_rs1v : int;
  mutable s_rs2v : int;
  mutable s_has_operands : bool;
  mutable s_value : int option;
      (* the forwardable rd value: a base instruction's from the operand
         stage on, an ISAX's once its WrRD to a nonzero rd was valid *)
  mutable s_new_pc : Bitvec.t option;
      (* the known redirect: a base instruction's PC write, an ISAX's valid WrPC *)
  mutable s_stores : ((string * int) * Bitvec.t) list;
      (* a base instruction's memory writes (space, address), youngest first *)
  mutable s_pending : Cosim.mem_response list;  (* ISAX: RdMem responses in flight *)
  mutable s_vstage : int;  (* virtual stage while held past writeback *)
}

let slot_instr s = s.s_ti

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (* committed architectural state *)
  isaxes : (Cosim.plan * Rtl.Engine.t) list;  (* one per ISAX instruction module *)
  always : (Cosim.plan * Rtl.Engine.t) list;  (* one per always-block module *)
  facts : (string, bool * (Cosim.plan * Rtl.Engine.t) option) Hashtbl.t;
      (* per instruction name: a base load or store?, its ISAX module *)
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
    Diag.fatalf ~code:"E0603" "the structural pipeline does not model %s, an FSM-sequenced core"
      core.core_name;
  let modules kind =
    List.filter_map
      (fun (f : Longnail.Flow.compiled_functionality) ->
        if f.cf_kind = kind then
          Some (Cosim.plan f, Rtl.Engine.create f.cf_hw.Longnail.Hwgen.netlist)
        else None)
      compiled.funcs
  in
  let isaxes = modules `Instruction in
  let fact (ti : Tast.tinstr) =
    ( List.mem ti.ti_name Machine.mem_instr_names,
      List.find_opt (fun (plan, _) -> (Cosim.func plan).cf_name = ti.ti_name) isaxes )
  in
  {
    compiled;
    st = Interp.create compiled.unit_;
    isaxes;
    always = modules `Always;
    facts =
      Hashtbl.of_seq
        (Seq.map (fun (ti : Tast.tinstr) -> (ti.ti_name, fact ti)) (List.to_seq compiled.unit_.tinstrs));
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

(* ---- in-flight memory and redirects ---- *)

(* The memory port of slot [s]: its writes buffer in the slot until it
   commits; its reads see the youngest byte buffered by [s] or an older
   in-flight slot, else committed memory. *)
let mem_port t (s : slot) =
  let rec read space addr i seen =
    if i >= Array.length t.stages then Interp.read_mem_elem t.st space addr
    else
      match t.stages.(i) with
      | Some o when seen || o == s -> (
          match List.assoc_opt (space, addr) o.s_stores with
          | Some b -> b
          | None -> read space addr (i + 1) true)
      | _ -> read space addr (i + 1) seen
  in
  {
    Interp.read_elem = (fun space addr -> read space addr 1 false);
    write_elem = (fun space addr b -> s.s_stores <- ((space, addr), b) :: s.s_stores);
  }

(* A slot whose redirect is known squashes every younger slot; fetch
   holds until it commits. *)
let squash_younger t (s : slot) =
  Array.find_index (function Some o -> o == s | None -> false) t.stages
  |> Option.iter (fun i -> Array.fill t.stages 1 (i - 1) None)

let redirect_pending t =
  Array.exists (function Some s -> s.s_new_pc <> None | None -> false) t.stages

(* Does an ISAX older than stage [older_than], in the pipe or detached,
   still write [target] in a stage it has not serviced? [from i d] is
   the first such stage of the in-pipe slot [d] at stage [i]. *)
let pending_writer t ~older_than ~from target =
  let writes (d : slot) from =
    match d.s_isax with Some (plan, _) -> Cosim.writes plan target ~from | None -> false
  in
  let rec in_pipe i =
    i < Array.length t.stages
    && ((match t.stages.(i) with Some d -> writes d (from i d) | None -> false) || in_pipe (i + 1))
  in
  in_pipe (older_than + 1) || List.exists (fun (d : slot) -> writes d d.s_vstage) t.detached

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
    mem_read =
      (fun (t, s) addr _ elems ->
        Interp.read_mem ?mem:(Option.map (mem_port t) s) t.st "MEM" addr elems);
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
  | Some (plan, engine) ->
      s.s_pending <- Cosim.service plan engine ~stage host (t, Some s);
      if s.s_new_pc <> None then squash_younger t s
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
        | Instr_word | Rs1 | Rs2 -> invalid_arg "Pipeline: an always-block reads an instruction operand");
      Rtl.Engine.eval engine;
      ignore (Cosim.service plan engine ~stage:0 host (t, None));
      Rtl.Engine.clock engine)
    t.always

(* ---- base-instruction execution ---- *)

(* Run a base instruction's CoreDSL behaviour once, at the operand stage,
   on the committed state with the forwarded operands installed, and
   capture its effects in the slot: the rd value, a PC write and (through
   the memory port) its stores. The registers are restored afterwards. *)
let base_execute t (s : slot) =
  let x = Interp.reg_array t.st "X" in
  let saved = List.map (fun r -> (r, x.(r))) [ s.s_rs1; s.s_rs2; s.s_rd ] in
  x.(s.s_rs1) <- bv s.s_rs1v;
  x.(s.s_rs2) <- bv s.s_rs2v;
  write_pc t s.s_pc;
  Interp.exec_instr ~mem:(mem_port t s) t.st s.s_ti ~instr_word:(bv s.s_word);
  s.s_value <- Some (Bitvec.to_int x.(s.s_rd));
  if t.st.Interp.pc_written then begin
    s.s_new_pc <- Some (Interp.read_reg t.st "PC");
    squash_younger t s
  end;
  List.iter (fun (r, v) -> x.(r) <- v) saved

(* commit the oldest instruction: its rd value and buffered stores, then
   its redirect (younger slots are already squashed) *)
let commit t (s : slot) =
  t.instret <- t.instret + 1;
  Option.iter (write_gpr t s.s_rd) s.s_value;
  List.iter (fun ((space, addr), b) -> Interp.write_mem_elem t.st space addr b) (List.rev s.s_stores);
  Option.iter
    (fun pc' ->
      t.fetch_pc <- Bitvec.to_int pc';
      t.halted <- false)
    s.s_new_pc

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
        (* base and ISAX memory accesses in program order: a base load or
           store waits for older ISAX memory writes, an ISAX writer for
           older buffered base stores *)
        let mem_wait =
          match s.s_isax with
          | None ->
              s.s_mem
              && pending_writer t ~older_than:opstage ~from:(fun i d -> max i d.s_vstage) `Mem
          | Some (plan, _) ->
              Cosim.writes plan `Mem ~from:0
              && Array.exists (function Some o -> o.s_stores <> [] | None -> false) t.stages
        in
        if
          operand_hazard t ~upto:(opstage + 1) s.s_rs1
          || operand_hazard t ~upto:(opstage + 1) s.s_rs2
          || waw || mem_wait
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
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some { s_isax = Some (plan, _); _ } ->
          List.iter
            (fun reg ->
              if pending_writer t ~older_than:stage ~from:(fun i _ -> i + 1) (`Custreg reg) then
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
    (match t.stages.(last) with
    | Some _ when !hold_at_end -> ()
    | Some ({ s_isax = Some _; _ } as sl) when !detach_now ->
        sl.s_vstage <- (if sl.s_vstage > 0 then sl.s_vstage else last + 1);
        t.detached <- t.detached @ [ sl ];
        t.instret <- t.instret + 1;
        t.stages.(last) <- None
    | Some s ->
        commit t s;
        t.stages.(last) <- None
    | None -> ());
    (* 4. advance: slots at or before the stall point hold; bubbles drain
       behind them *)
    for stage = last - 1 downto frozen + 1 do
      t.stages.(stage + 1) <- t.stages.(stage);
      t.stages.(stage) <- None
    done;
    (* always-blocks observe (and may replace) the next fetch, which holds
       while a known redirect is in flight *)
    if frozen = 0 && not (t.halted || redirect_pending t) then begin
      tick_always t;
      let word = Interp.read_mem t.st "MEM" t.fetch_pc 4 in
      match Interp.decode t.st word with
      | Some ti when ti.ti_name = "EBREAK" -> t.halted <- true
      | Some ti ->
          let field name = Option.value ~default:0 (Arch.field_value ti word name) in
          let mem, isax = Hashtbl.find t.facts ti.ti_name in
          t.stages.(1) <-
            Some
              {
                s_pc = t.fetch_pc;
                s_word = Bitvec.to_int word;
                s_ti = ti;
                s_rs1 = field "rs1";
                s_rs2 = field "rs2";
                s_rd = field "rd";
                s_isax = isax;
                s_mem = mem;
                s_rs1v = 0;
                s_rs2v = 0;
                s_has_operands = false;
                s_value = None;
                s_new_pc = None;
                s_stores = [];
                s_pending = [];
                s_vstage = 0;
              };
          t.fetch_pc <- (t.fetch_pc + 4) land 0xFFFFFFFF
      | None -> t.halted <- true
    end;
    List.iter (fun (_, engine) -> Rtl.Engine.clock engine) t.isaxes;
    true
  end

let run ?(fuel = 500_000) t =
  Arch.run_with_fuel ~fuel (fun () -> step t);
  t.cycles
