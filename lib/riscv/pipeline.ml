(* Structural pipeline simulator with SCAIE-V-style ISAX integration; the
   model and its limitations are described in pipeline.mli. The host side
   of the SCAIE-V port protocol (which ports a stage drives, services and
   samples) is Longnail.Cosim's; this module decides which instruction
   occupies which stage and when the pipe stalls, detaches or commits. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast
module Cosim = Longnail.Cosim

let bv = Arch.bv

(* an ISAX instruction module: its port plan on its engine, and the last
   cycles an instruction of it was in the pipe or detached *)
type isax = {
  plan : Cosim.plan;
  mutable in_pipe : int;
  mutable detached_at : int;
}

(* [s_value] and [s_new_pc] before they are known *)
let none = -1

type slot = {
  s_pc : int;
  s_word : int;
  s_instr_word : Bitvec.t;  (* [s_word], for the CoreDSL behaviour *)
  s_ti : Tast.tinstr;
  s_rs1 : int;  (* register fields; 0 when absent *)
  s_rs2 : int;
  s_rd : int;
  s_isax : isax option;  (* its module, the first of [isaxes] by name *)
  s_mem : bool;  (* a base load or store *)
  mutable s_rs1v : int;
  mutable s_rs2v : int;
  mutable s_has_operands : bool;
  mutable s_value : int;
      (* the forwardable rd value: a base instruction's from the operand
         stage on, an ISAX's once its WrRD to a nonzero rd was valid *)
  mutable s_new_pc : int;
      (* the known redirect: a base instruction's PC write, an ISAX's valid WrPC *)
  mutable s_stores : (string * int * Bitvec.t) list;
      (* a base instruction's memory writes (space, address, byte), youngest first *)
  mutable s_pending : Cosim.mem_response list;  (* ISAX: RdMem responses in flight *)
  mutable s_vstage : int;  (* virtual stage while held past writeback *)
}

let slot_instr s = s.s_ti

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (* committed architectural state *)
  isaxes : isax list;  (* one per ISAX instruction module *)
  always : Cosim.plan list;  (* one per always-block module *)
  decoded : (int, slot option) Hashtbl.t;  (* per fetched word: the slot it fetches into *)
  stages : slot option array;  (* index 1 .. writeback+1; commit from the last *)
  mutable detached : slot list;  (* decoupled units past writeback *)
  mutable fetch_pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  mem_port : Interp.mem_port;  (* the view of the slot at [port_stage] *)
  mutable port_stage : int;
}

(* youngest byte of [space] at [addr] buffered by a slot at or behind
   stage [i], else committed memory *)
let rec buffered t space addr i =
  if i >= Array.length t.stages then Interp.read_mem_elem t.st space addr
  else
    let stores = match t.stages.(i) with Some o -> o.s_stores | None -> [] in
    match List.find_opt (fun (sp, a, _) -> a = addr && String.equal sp space) stores with
    | Some (_, _, b) -> b
    | None -> buffered t space addr (i + 1)

let create (compiled : Longnail.Flow.compiled) =
  let core = compiled.Longnail.Flow.core in
  if core.Scaiev.Datasheet.is_fsm then
    Diag.fatalf ~code:"E0603" "the structural pipeline does not model %s, an FSM-sequenced core"
      core.core_name;
  let modules kind =
    List.filter_map
      (fun (f : Longnail.Flow.compiled_functionality) ->
        if f.cf_kind = kind then
          Some (Cosim.plan f (Rtl.Engine.create f.cf_hw.Longnail.Hwgen.netlist))
        else None)
      compiled.funcs
  in
  let isaxes =
    List.map
      (fun plan ->
        (* the one cycle every module runs: a stage-0 register takes its
           value here, as it would on the first cycle of the pipe *)
        Rtl.Engine.eval (Cosim.engine plan);
        Rtl.Engine.clock (Cosim.engine plan);
        { plan; in_pipe = 0; detached_at = 0 })
      (modules `Instruction)
  in
  let stages = Array.make (core.writeback_stage + 2) None in
  (* the port's writes buffer in the slot at [port_stage] until it commits *)
  let rec t =
    {
      compiled;
      st = Interp.create compiled.unit_;
      isaxes;
      always = modules `Always;
      decoded = Hashtbl.create 64;
      stages;
      detached = [];
      fetch_pc = 0;
      cycles = 0;
      instret = 0;
      halted = false;
      mem_port =
        {
          read_elem = (fun space addr -> buffered t space addr t.port_stage);
          write_elem =
            (fun space addr b ->
              Option.iter (fun s -> s.s_stores <- (space, addr, b) :: s.s_stores) stages.(t.port_stage));
        };
      port_stage = 0;
    }
  in
  t

let read_gpr t i = Arch.read_gpr t.st i
let write_gpr t i v = Arch.write_gpr t.st i v
let write_pc t v = Arch.write_pc t.st v

let load_program t ?(base = 0) words =
  Arch.load_program t.st ~base words;
  t.fetch_pc <- base

let store_word t addr v = Arch.store_word t.st addr v

(* ---- fetch: the decode table ---- *)

(* The slot word [w] is fetched into, decided on its first fetch and kept
   per word (so a rewritten word decodes afresh): fetch copies it. [None]
   for EBREAK and for a word no instruction matches, both of which halt
   fetch. *)
let decode t w =
  match Hashtbl.find t.decoded w with
  | d -> d
  | exception Not_found ->
      let word = bv w in
      let d =
        match Interp.decode t.st word with
        | Some ti when ti.ti_name <> "EBREAK" ->
            let field name = Option.value ~default:0 (Arch.field_value ti word name) in
            Some
              {
                s_pc = 0;
                s_word = w;
                s_instr_word = word;
                s_ti = ti;
                s_rs1 = field "rs1";
                s_rs2 = field "rs2";
                s_rd = field "rd";
                s_isax = List.find_opt (fun m -> (Cosim.func m.plan).cf_name = ti.ti_name) t.isaxes;
                s_mem = List.mem ti.ti_name Machine.mem_instr_names;
                s_rs1v = 0;
                s_rs2v = 0;
                s_has_operands = false;
                s_value = none;
                s_new_pc = none;
                s_stores = [];
                s_pending = [];
                s_vstage = 0;
              }
        | _ -> None
      in
      Hashtbl.add t.decoded w d;
      d

(* ---- forwarding network ---- *)

(* youngest in-pipe producer of register [r] older than stage [upto]
   that has its value; falls back to the register file, where a detached
   unit's result lands as soon as it is known *)
let forwarded_operand t ~upto r =
  let rec scan i =
    if i >= Array.length t.stages then read_gpr t r
    else
      match t.stages.(i) with
      | Some s when s.s_rd = r && s.s_value <> none -> s.s_value
      | _ -> scan (i + 1)
  in
  if r = 0 then 0 else scan upto

(* does a slot older than stage [upto] (in the pipe from [upto] on, or
   detached) satisfy [p]? *)
let older_exists t ~upto p =
  let rec scan i =
    i < Array.length t.stages
    && ((match t.stages.(i) with Some s -> p s | None -> false) || scan (i + 1))
  in
  scan upto || List.exists p t.detached

(* a producer of register [r] whose value is not ready *)
let unfinished r (s : slot) = r <> 0 && s.s_rd = r && s.s_value = none

(* a spawned instruction, which detaches at writeback *)
let decoupled = function
  | Some m -> (Cosim.func m.plan).cf_mode = Scaiev.Config.Decoupled
  | None -> false

(* ---- in-flight memory and redirects ---- *)

(* The memory port of slot [s]: its writes buffer in the slot until it
   commits; its reads see the youngest byte buffered by [s] or an older
   in-flight slot, else committed memory (a detached slot sees committed
   memory only). *)
let mem_port t (s : slot) =
  t.port_stage <-
    Option.value ~default:(Array.length t.stages)
      (Array.find_index (function Some o -> o == s | None -> false) t.stages);
  t.mem_port

(* A slot whose redirect is known squashes every younger slot; fetch
   holds until it commits. *)
let squash_younger t (s : slot) =
  Array.find_index (function Some o -> o == s | None -> false) t.stages
  |> Option.iter (fun i -> Array.fill t.stages 1 (i - 1) None)

let redirect_pending t =
  Array.exists (function Some s -> s.s_new_pc <> none | None -> false) t.stages

(* Does an ISAX older than stage [older_than], in the pipe or detached,
   still write [target] in a stage it has not serviced? [from i d] is
   the first such stage of the in-pipe slot [d] at stage [i]. *)
let pending_writer t ~older_than ~from target =
  let writes (d : slot) from =
    match d.s_isax with Some m -> Cosim.writes m.plan target ~from | None -> false
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
        | Some s when valid && s.s_rd <> 0 -> s.s_value <- data
        | _ -> ());
    write_pc =
      (fun (t, s) data valid ->
        if valid then match s with Some s -> s.s_new_pc <- data | None -> t.fetch_pc <- data);
    write_custreg =
      (fun (t, _) reg idx data valid ->
        if valid then Arch.write_custreg t.st reg (Option.value ~default:0 idx) data);
    write_mem = (fun (t, _) addr data valid -> if valid then Arch.write_mem t.st addr data);
  }

let slot_source (s : slot) = function
  | Cosim.Instr_word -> s.s_word
  | Rs1 -> s.s_rs1v
  | Rs2 -> s.s_rs2v
  | Pc -> s.s_pc

let drive (s : slot) stage =
  match s.s_isax with
  | Some m -> Cosim.drive m.plan ~stage ~pending:s.s_pending slot_source s
  | None -> ()

let service t (s : slot) stage =
  match s.s_isax with
  | Some m ->
      s.s_pending <- Cosim.service m.plan ~stage host (t, Some s);
      if s.s_new_pc <> none then squash_younger t s
  | None -> ()

let fetch_source t = function
  | Cosim.Pc -> t.fetch_pc
  | Instr_word | Rs1 | Rs2 -> invalid_arg "Pipeline: an always-block reads an instruction operand"

(* always-blocks evaluate against the fetch PC and committed state; their
   valid-gated writes apply immediately (Section 3.2). The schedule puts
   every always-block interface in stage 0, so one evaluation of that
   stage is the whole block; an RdMem response (due in stage 1) never
   reaches it, as under Cosim.run_plan. *)
let tick_always t =
  List.iter
    (fun plan ->
      Cosim.drive plan ~stage:0 ~pending:[] fetch_source t;
      Rtl.Engine.eval (Cosim.engine plan);
      ignore (Cosim.service plan ~stage:0 host (t, None));
      Rtl.Engine.clock (Cosim.engine plan))
    t.always

(* ---- base-instruction execution ---- *)

(* Run a base instruction's CoreDSL behaviour once, at the operand stage,
   on the committed state with the forwarded operands installed, and
   capture its effects in the slot: the rd value, a PC write and (through
   the memory port) its stores. The registers are restored afterwards. *)
let base_execute t ~opstage (s : slot) =
  let x = Interp.reg_array t.st "X" in
  let rs1 = x.(s.s_rs1) and rs2 = x.(s.s_rs2) and rd = x.(s.s_rd) in
  x.(s.s_rs1) <- bv s.s_rs1v;
  x.(s.s_rs2) <- bv s.s_rs2v;
  write_pc t s.s_pc;
  t.port_stage <- opstage;
  Interp.exec_instr ~mem:t.mem_port t.st s.s_ti ~instr_word:s.s_instr_word;
  s.s_value <- Bitvec.to_int x.(s.s_rd);
  if t.st.Interp.pc_written then begin
    s.s_new_pc <- Arch.read_pc t.st;
    squash_younger t s
  end;
  x.(s.s_rs1) <- rs1;
  x.(s.s_rs2) <- rs2;
  x.(s.s_rd) <- rd

(* commit the oldest instruction: its rd value and buffered stores, then
   its redirect (younger slots are already squashed) *)
let commit t (s : slot) =
  t.instret <- t.instret + 1;
  if s.s_value <> none then write_gpr t s.s_rd s.s_value;
  List.iter (fun (space, addr, b) -> Interp.write_mem_elem t.st space addr b) (List.rev s.s_stores);
  if s.s_new_pc <> none then begin
    t.fetch_pc <- s.s_new_pc;
    t.halted <- false
  end

(* a module runs this cycle if an instruction of it is in the pipe or
   detached (see pipeline.mli) *)
let live cycle m = m.in_pipe = cycle || m.detached_at = cycle

(* One pipeline cycle. Returns false when halted and fully drained. *)
let step t =
  let drained = Array.for_all Option.is_none t.stages && t.detached = [] in
  if t.halted && drained then false
  else begin
    t.cycles <- t.cycles + 1;
    let cycle = t.cycles in
    let core = t.compiled.Longnail.Flow.core in
    let opstage = core.Scaiev.Datasheet.operand_stage in
    let last = Array.length t.stages - 1 in
    (* 1. operand fetch and interlock at the operand stage *)
    let stall = ref false in
    (match t.stages.(opstage) with
    | Some s when not s.s_has_operands ->
        (* WAW against older decoupled writers whose result has not
           landed (it lands out of order): block same-rd issue *)
        let waw = older_exists t ~upto:(opstage + 1) (fun o -> unfinished s.s_rd o && decoupled o.s_isax) in
        (* base and ISAX memory accesses in program order: a base load or
           store waits for older ISAX memory writes, an ISAX writer for
           older buffered base stores *)
        let mem_wait =
          match s.s_isax with
          | None ->
              s.s_mem
              && pending_writer t ~older_than:opstage ~from:(fun i o -> max i o.s_vstage) `Mem
          | Some m ->
              Cosim.writes m.plan `Mem ~from:0
              && Array.exists (function Some o -> o.s_stores <> [] | None -> false) t.stages
        in
        if
          older_exists t ~upto:(opstage + 1) (fun o -> unfinished s.s_rs1 o || unfinished s.s_rs2 o)
          || waw || mem_wait
        then stall := true
        else begin
          s.s_rs1v <- forwarded_operand t ~upto:(opstage + 1) s.s_rs1;
          s.s_rs2v <- forwarded_operand t ~upto:(opstage + 1) s.s_rs2;
          s.s_has_operands <- true;
          if s.s_isax = None then base_execute t ~opstage s
        end
    | _ -> ());
    (* 1b. custom-register data hazards (SCAIE-V hazard handling) *)
    let stall_point = ref (if !stall then opstage else 0) in
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some { s_isax = Some m; _ } ->
          List.iter
            (fun reg ->
              if pending_writer t ~older_than:stage ~from:(fun i _ -> i + 1) (`Custreg reg) then
                stall_point := max !stall_point stage)
            (Cosim.custreg_reads m.plan ~stage)
      | _ -> ()
    done;
    (* 1c. does the instruction at the end of the pipe extend past it? *)
    let hold_at_end = ref false and detach_now = ref false in
    (match t.stages.(last) with
    | Some ({ s_isax = Some m; _ } as sl) ->
        (* on arrival (vstage = 0) the pipe stage itself still gets
           serviced this cycle, so the module extends only if it reaches
           strictly beyond; afterwards, hold until the final virtual stage
           has been serviced *)
        let max_stage = Cosim.last_stage m.plan in
        let more = if sl.s_vstage > 0 then max_stage >= sl.s_vstage else max_stage > last in
        if more then begin
          if decoupled (Some m) then detach_now := true
          else begin
            (* tightly-coupled: the whole core stalls *)
            hold_at_end := true;
            stall_point := last
          end
        end
    | _ -> ());
    let frozen = !stall_point in
    (* 2. drive and evaluate the ISAX modules for every occupied stage;
       only the modules with an instruction in the pipe or detached run *)
    Array.iter
      (function Some { s_isax = Some m; _ } -> m.in_pipe <- cycle | _ -> ())
      t.stages;
    List.iter (fun (d : slot) -> (Option.get d.s_isax).detached_at <- cycle) t.detached;
    List.iter (fun m -> if live cycle m then Cosim.set_stalls m.plan ~frozen_below:frozen) t.isaxes;
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some ({ s_has_operands = true; _ } as s) ->
          drive s (if stage = last && s.s_vstage > 0 then s.s_vstage else stage)
      | Some s when stage <= opstage -> drive s stage
      | _ -> ()
    done;
    (* a module with detached instructions only is evaluated in 2a *)
    List.iter (fun m -> if m.in_pipe = cycle then Rtl.Engine.eval (Cosim.engine m.plan)) t.isaxes;
    (* 2a. detached decoupled units keep computing beside the pipe *)
    t.detached <-
      List.filter
        (fun (d : slot) ->
          let m = Option.get d.s_isax in
          let known = d.s_value <> none in
          drive d d.s_vstage;
          Rtl.Engine.eval (Cosim.engine m.plan);
          service t d d.s_vstage;
          (* out-of-order writeback through the scoreboard *)
          if (not known) && d.s_value <> none then write_gpr t d.s_rd d.s_value;
          d.s_vstage <- d.s_vstage + 1;
          d.s_vstage <= Cosim.last_stage m.plan)
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
        if sl.s_value <> none then write_gpr t sl.s_rd sl.s_value;
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
      let w = Arch.load_word t.st t.fetch_pc in
      match decode t w with
      | None -> t.halted <- true
      | Some d ->
          t.stages.(1) <- Some { d with s_pc = t.fetch_pc };
          t.fetch_pc <- (t.fetch_pc + 4) land 0xFFFFFFFF
    end;
    List.iter (fun m -> if live cycle m then Rtl.Engine.clock (Cosim.engine m.plan)) t.isaxes;
    true
  end

let run ?(fuel = 500_000) t =
  Arch.run_with_fuel ~fuel (fun () -> step t);
  t.cycles
