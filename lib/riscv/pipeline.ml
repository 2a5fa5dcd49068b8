(* Structural pipeline simulator with SCAIE-V-style ISAX integration.

   Where {!Machine} is a cycle-cost model, this module actually builds the
   pipeline: per-stage instruction slots, operand forwarding, interlock
   stalls and branch flushes — and wires the Longnail-generated RTL
   modules into it the way SCAIE-V does:

   - one {!Rtl.Engine.t} instance per ISAX module serves *all* in-flight
     instructions at once: the module's internal stallable pipeline
     registers carry each instruction's intermediate values, and the
     integration drives the stage-s input ports with whatever instruction
     currently occupies stage s (the ports are stage-suffixed precisely
     for this);
   - the module's stall_in_s ports follow the pipeline's stall boundaries:
     when the operand-stage interlock holds the front of the pipe, the
     corresponding module boundaries freeze with it while the back end
     keeps draining into bubbles;
   - ISAX result/valid outputs are captured in the stage they are bound to
     and committed architecturally in order at the end of the pipe;
   - always-blocks evaluate on every fetch and may redirect it with zero
     overhead (ZOL);
   - tightly-coupled modules (deeper than the writeback stage, no spawn)
     hold the whole pipeline while their module finishes — the paper's
     stall strategy;
   - decoupled modules (spawn) detach at writeback: the pipeline flows on
     and commits younger independent instructions while the detached unit
     keeps computing; its result writes back out of order through a
     scoreboard that stalls readers (and same-rd writers) until it lands —
     the paper's "lightweight out-of-order commit/writeback".

   Limitations (documented, asserted by the tests only where respected):
   pipelined cores only (no PicoRV32), and no store-to-load forwarding
   inside the pipeline window — a dependent load must trail a store by at
   least the pipe depth, which the test programs respect. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast

exception Pipeline_error of string

let u32 = Bitvec.unsigned_ty 32
let bv v = Bitvec.of_int u32 v

(* captured effects of an ISAX instruction while it flows down the pipe *)
type isax_capture = {
  mutable c_rd : (int * Bitvec.t) option;
  mutable c_pc : Bitvec.t option;
  mutable c_custreg : (string * int * Bitvec.t) list;  (* newest first *)
  mutable c_mem : (int * Bitvec.t) option;
}

type slot = {
  s_pc : int;
  s_word : int;
  s_ti : Tast.tinstr;
  s_isax : Longnail.Flow.compiled_functionality option;
  s_capture : isax_capture;
  mutable s_rs1v : int;
  mutable s_rs2v : int;
  mutable s_has_operands : bool;
  mutable s_result : int option;  (* base instructions: forwardable value *)
  mutable s_vstage : int;  (* virtual stage while held past writeback *)
}

type t = {
  compiled : Longnail.Flow.compiled;
  st : Interp.state;  (* committed architectural state *)
  sims : (string * Rtl.Engine.t) list;  (* one per ISAX instruction module *)
  always_units : (Longnail.Flow.compiled_functionality * Rtl.Engine.t) list;
  stages : slot option array;  (* index 1 .. depth+1; commit from depth+1 *)
  mutable detached : slot list;  (* decoupled units past writeback *)
  mutable fetch_pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  depth : int;
}

let create (compiled : Longnail.Flow.compiled) =
  let core = compiled.Longnail.Flow.core in
  if core.Scaiev.Datasheet.is_fsm then
    raise (Pipeline_error "the structural pipeline models pipelined cores only");
  let sims, always_units =
    List.fold_left
      (fun (sims, always) (f : Longnail.Flow.compiled_functionality) ->
        let sim = Rtl.Engine.create f.cf_hw.Longnail.Hwgen.netlist in
        match f.cf_kind with
        | `Instruction -> ((f.cf_name, sim) :: sims, always)
        | `Always -> (sims, (f, sim) :: always))
      ([], []) compiled.funcs
  in
  let depth = core.writeback_stage in
  {
    compiled;
    st = Interp.create compiled.unit_;
    sims;
    always_units;
    stages = Array.make (depth + 2) None;
    detached = [];
    fetch_pc = 0;
    cycles = 0;
    instret = 0;
    halted = false;
    depth;
  }

let read_gpr t i = Bitvec.to_int (Interp.read_regfile t.st "X" i)
let write_gpr t i v = if i <> 0 then (Interp.reg_array t.st "X").(i) <- bv v
let write_pc t v = (Interp.reg_array t.st "PC").(0) <- bv v

let load_program t ?(base = 0) words =
  List.iteri (fun i w -> Interp.write_mem t.st "MEM" (base + (4 * i)) 4 (bv w)) words;
  t.fetch_pc <- base;
  write_pc t base

let store_word t addr v = Interp.write_mem t.st "MEM" addr 4 (bv v)

let field_value ti word name =
  Option.map (fun fi -> Bitvec.to_int (Interp.decode_field (bv word) fi)) (Tast.find_field ti name)

(* ---- forwarding network ---- *)

(* youngest in-flight producer of register [r] older than stage [upto];
   falls back to the committed register file *)
let forwarded_operand t ~upto r =
  if r = 0 then 0
  else begin
    let from_detached () =
      let rec pick = function
        | [] -> read_gpr t r
        | (d : slot) :: rest -> (
            if field_value d.s_ti d.s_word "rd" = Some r then
              match d.s_capture.c_rd with
              | Some (_, v) -> Bitvec.to_int v
              | None -> pick rest
            else pick rest)
      in
      pick t.detached
    in
    let rec scan i =
      if i >= Array.length t.stages then from_detached ()
      else
        match t.stages.(i) with
        | Some s -> (
            let rd = field_value s.s_ti s.s_word "rd" in
            if rd = Some r then
              match s.s_isax with
              | Some _ -> (
                  match s.s_capture.c_rd with
                  | Some (_, v) -> Bitvec.to_int v
                  | None -> scan (i + 1) (* not produced; caller stalled *))
              | None -> ( match s.s_result with Some v -> v | None -> scan (i + 1))
            else scan (i + 1))
        | None -> scan (i + 1)
    in
    scan upto
  end

(* is there an older in-flight producer of [r] whose value is not ready? *)
let operand_hazard t ~upto r =
  if r = 0 then false
  else begin
    let detached_pending =
      List.exists
        (fun (d : slot) ->
          field_value d.s_ti d.s_word "rd" = Some r && d.s_capture.c_rd = None)
        t.detached
    in
    let rec scan i =
      if i >= Array.length t.stages then detached_pending
      else
        match t.stages.(i) with
        | Some s ->
            let rd = field_value s.s_ti s.s_word "rd" in
            let unfinished =
              rd = Some r
              &&
              match s.s_isax with
              | Some _ -> s.s_capture.c_rd = None
              | None -> s.s_result = None
            in
            if unfinished then true else scan (i + 1)
        | None -> scan (i + 1)
    in
    scan upto
  end

(* ---- ISAX module integration ---- *)

let netlist_of t name =
  (List.find
     (fun (f : Longnail.Flow.compiled_functionality) -> f.cf_name = name)
     t.compiled.Longnail.Flow.funcs)
    .cf_hw.Longnail.Hwgen.netlist

(* set the stall inputs: boundary s freezes iff s < frozen_below *)
let set_stall_inputs t ~frozen_below =
  List.iter
    (fun (name, sim) ->
      List.iter
        (fun (p : Rtl.Netlist.port) ->
          let pn = p.Rtl.Netlist.port_name in
          if String.length pn > 9 && String.sub pn 0 9 = "stall_in_" then begin
            let s = int_of_string (String.sub pn 9 (String.length pn - 9)) in
            Rtl.Engine.set_input sim pn
              (Bitvec.of_int (Bitvec.unsigned_ty 1) (if s < frozen_below then 1 else 0))
          end)
        (netlist_of t name).Rtl.Netlist.inputs)
    t.sims

let drive_isax_inputs t (s : slot) (f : Longnail.Flow.compiled_functionality) stage =
  let sim = List.assoc f.cf_name t.sims in
  let port role (b : Longnail.Hwgen.iface_binding) = List.assoc role b.ib_ports in
  List.iter
    (fun (b : Longnail.Hwgen.iface_binding) ->
      if b.ib_stage = stage then
        match b.ib_opname with
        | "lil.instr_word" -> Rtl.Engine.set_input sim (port "data" b) (bv s.s_word)
        | "lil.read_rs1" -> Rtl.Engine.set_input sim (port "data" b) (bv s.s_rs1v)
        | "lil.read_rs2" -> Rtl.Engine.set_input sim (port "data" b) (bv s.s_rs2v)
        | "lil.read_pc" -> Rtl.Engine.set_input sim (port "data" b) (bv s.s_pc)
        | _ -> ())
    f.cf_hw.Longnail.Hwgen.bindings

let service_isax_stage t (s : slot) (f : Longnail.Flow.compiled_functionality) stage =
  let sim = List.assoc f.cf_name t.sims in
  let port role (b : Longnail.Hwgen.iface_binding) = List.assoc role b.ib_ports in
  List.iter
    (fun (b : Longnail.Hwgen.iface_binding) ->
      if b.ib_stage = stage then
        match b.ib_opname with
        | "lil.read_custreg" ->
            (* the register file answers combinationally in the same stage *)
            let reg = Option.get b.ib_reg in
            let idx =
              match List.assoc_opt "addr" b.ib_ports with
              | Some ap -> Bitvec.to_int (Rtl.Engine.output sim ap)
              | None -> 0
            in
            Rtl.Engine.set_input sim (port "data" b) (Interp.reg_array t.st reg).(idx);
            Rtl.Engine.eval sim
        | "lil.read_mem" ->
            (* issue now; the response port belongs to stage+latency and is
               supplied before the next evaluation *)
            let addr = Bitvec.to_int (Rtl.Engine.output sim (port "addr" b)) in
            let data_port = port "data" b in
            let width =
              match
                List.find_opt
                  (fun (p : Rtl.Netlist.port) -> p.Rtl.Netlist.port_name = data_port)
                  f.cf_hw.Longnail.Hwgen.netlist.Rtl.Netlist.inputs
              with
              | Some p -> p.Rtl.Netlist.port_width
              | None -> 32
            in
            Rtl.Engine.set_input sim data_port (Interp.read_mem t.st "MEM" addr (max 1 (width / 8)));
            Rtl.Engine.eval sim
        | "lil.write_rd" ->
            if Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) then begin
              match field_value s.s_ti s.s_word "rd" with
              | Some rd when rd <> 0 ->
                  s.s_capture.c_rd <- Some (rd, Rtl.Engine.output sim (port "data" b))
              | _ -> ()
            end
        | "lil.write_pc" ->
            if Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) then
              s.s_capture.c_pc <- Some (Rtl.Engine.output sim (port "data" b))
        | "lil.write_custreg" ->
            (* SCAIE-V's custom register file applies writes in their
               scheduled stage (its hazard logic orders readers); applying
               at commit instead would let an always-block observe stale
               state, e.g. ZOL missing a just-set COUNT *)
            if Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) then begin
              let reg = Option.get b.ib_reg in
              let a = Interp.reg_array t.st reg in
              let idx =
                match List.assoc_opt "addr" b.ib_ports with
                | Some ap -> Bitvec.to_int (Rtl.Engine.output sim ap)
                | None -> 0
              in
              a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) (Rtl.Engine.output sim (port "data" b))
            end
        | "lil.write_mem" ->
            (* memory writes likewise issue in their scheduled stage *)
            if Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) then begin
              let data = Rtl.Engine.output sim (port "data" b) in
              Interp.write_mem t.st "MEM"
                (Bitvec.to_int (Rtl.Engine.output sim (port "addr" b)))
                (Bitvec.width data / 8) data
            end
        | _ -> ())
    f.cf_hw.Longnail.Hwgen.bindings

(* always-blocks: evaluate against the fetch PC and committed state; their
   valid-gated writes apply immediately (Section 3.2) *)
let tick_always t =
  List.iter
    (fun ((f : Longnail.Flow.compiled_functionality), sim) ->
      let port role (b : Longnail.Hwgen.iface_binding) = List.assoc role b.ib_ports in
      let bindings = f.cf_hw.Longnail.Hwgen.bindings in
      List.iter
        (fun (b : Longnail.Hwgen.iface_binding) ->
          if b.ib_opname = "lil.read_pc" then
            Rtl.Engine.set_input sim (port "data" b) (bv t.fetch_pc))
        bindings;
      Rtl.Engine.eval sim;
      List.iter
        (fun (b : Longnail.Hwgen.iface_binding) ->
          if b.ib_opname = "lil.read_custreg" then begin
            let reg = Option.get b.ib_reg in
            let idx =
              match List.assoc_opt "addr" b.ib_ports with
              | Some ap -> Bitvec.to_int (Rtl.Engine.output sim ap)
              | None -> 0
            in
            Rtl.Engine.set_input sim (port "data" b) (Interp.reg_array t.st reg).(idx);
            Rtl.Engine.eval sim
          end)
        bindings;
      List.iter
        (fun (b : Longnail.Hwgen.iface_binding) ->
          match b.ib_opname with
          | "lil.write_pc" ->
              if Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) then
                t.fetch_pc <- Bitvec.to_int (Rtl.Engine.output sim (port "data" b))
          | "lil.write_custreg" ->
              if Bitvec.to_bool (Rtl.Engine.output sim (port "valid" b)) then begin
                let reg = Option.get b.ib_reg in
                let a = Interp.reg_array t.st reg in
                let idx =
                  match List.assoc_opt "addr" b.ib_ports with
                  | Some ap -> Bitvec.to_int (Rtl.Engine.output sim ap)
                  | None -> 0
                in
                a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) (Rtl.Engine.output sim (port "data" b))
              end
          | _ -> ())
        bindings;
      Rtl.Engine.clock sim)
    t.always_units

(* ---- base-instruction execution ---- *)

(* produce the forwardable result at the operand stage using the native
   ISS with the forwarded operands installed *)
let base_execute t (s : slot) =
  let iss = Iss.create () in
  (match field_value s.s_ti s.s_word "rs1" with
  | Some r when r <> 0 -> Iss.write_reg iss r s.s_rs1v
  | _ -> ());
  (match field_value s.s_ti s.s_word "rs2" with
  | Some r when r <> 0 -> Iss.write_reg iss r s.s_rs2v
  | _ -> ());
  iss.Iss.pc <- s.s_pc;
  (* loads read the committed memory (no store-to-load forwarding) *)
  (match s.s_ti.ti_name with
  | "LB" | "LH" | "LW" | "LBU" | "LHU" ->
      let imm = Iss.sext ((s.s_word lsr 20) land 0xFFF) 11 in
      let addr = (s.s_rs1v + imm) land 0xFFFFFFFF in
      Iss.write_word iss (addr land lnot 3) (Bitvec.to_int (Interp.read_mem t.st "MEM" (addr land lnot 3) 4));
      Iss.write_word iss ((addr land lnot 3) + 4)
        (Bitvec.to_int (Interp.read_mem t.st "MEM" ((addr land lnot 3) + 4) 4))
  | _ -> ());
  (try Iss.step_word iss s.s_word with Iss.Unknown_instruction _ -> ());
  match field_value s.s_ti s.s_word "rd" with
  | Some rd when rd <> 0 -> s.s_result <- Some (Iss.read_reg iss rd)
  | _ -> s.s_result <- Some 0

(* commit the oldest instruction architecturally, in order *)
let commit t (s : slot) =
  t.instret <- t.instret + 1;
  match s.s_isax with
  | Some _ -> (
      (* custom-register and memory writes already took effect in their
         scheduled stages; the GPR result commits here in order *)
      match s.s_capture.c_rd with
      | Some (rd, v) -> write_gpr t rd (Bitvec.to_int v)
      | None -> ())
  | None -> (
      (* replay through the reference interpreter with the captured
         operands (stores need the architectural memory) *)
      let saved =
        List.filter_map
          (fun fo ->
            Option.bind fo (fun r ->
                if r = 0 then None else Some (r, (Interp.reg_array t.st "X").(r))))
          [ field_value s.s_ti s.s_word "rs1"; field_value s.s_ti s.s_word "rs2" ]
      in
      List.iter
        (fun (r, _) ->
          let v =
            if Some r = field_value s.s_ti s.s_word "rs1" then s.s_rs1v
            else s.s_rs2v
          in
          (Interp.reg_array t.st "X").(r) <- bv v)
        saved;
      write_pc t s.s_pc;
      Interp.exec_instr t.st s.s_ti ~instr_word:(bv s.s_word);
      let rd = field_value s.s_ti s.s_word "rd" in
      List.iter
        (fun (r, old) -> if Some r <> rd then (Interp.reg_array t.st "X").(r) <- old)
        saved)

let make_capture () = { c_rd = None; c_pc = None; c_custreg = []; c_mem = None }

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
        let rs1 = Option.value ~default:0 (field_value s.s_ti s.s_word "rs1") in
        let rs2 = Option.value ~default:0 (field_value s.s_ti s.s_word "rs2") in
        (* WAW against detached decoupled writers: block same-rd issue *)
        let waw =
          match field_value s.s_ti s.s_word "rd" with
          | Some rd when rd <> 0 ->
              List.exists
                (fun (d : slot) ->
                  field_value d.s_ti d.s_word "rd" = Some rd && d.s_capture.c_rd = None)
                t.detached
          | _ -> false
        in
        if
          operand_hazard t ~upto:(opstage + 1) rs1
          || operand_hazard t ~upto:(opstage + 1) rs2
          || waw
        then stall := true
        else begin
          s.s_rs1v <- forwarded_operand t ~upto:(opstage + 1) rs1;
          s.s_rs2v <- forwarded_operand t ~upto:(opstage + 1) rs2;
          s.s_has_operands <- true;
          if s.s_isax = None then base_execute t s
        end
    | _ -> ());
    (* 1b. custom-register data hazards (SCAIE-V hazard handling) *)
    let stall_point = ref (if !stall then opstage else 0) in
    let pending_custreg_writer ~older_than reg =
      let in_pipe =
        let rec scan i =
          if i >= Array.length t.stages then false
          else
            match t.stages.(i) with
            | Some { s_isax = Some g; _ } ->
                let pending =
                  List.exists
                    (fun (b : Longnail.Hwgen.iface_binding) ->
                      b.ib_opname = "lil.write_custreg" && b.ib_reg = Some reg && b.ib_stage > i)
                    g.cf_hw.Longnail.Hwgen.bindings
                in
                if pending then true else scan (i + 1)
            | _ -> scan (i + 1)
        in
        scan (older_than + 1)
      in
      in_pipe
      || List.exists
           (fun (d : slot) ->
             let g = Option.get d.s_isax in
             List.exists
               (fun (b : Longnail.Hwgen.iface_binding) ->
                 b.ib_opname = "lil.write_custreg" && b.ib_reg = Some reg
                 && b.ib_stage >= d.s_vstage)
               g.cf_hw.Longnail.Hwgen.bindings)
           t.detached
    in
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some { s_isax = Some f; _ } ->
          List.iter
            (fun (b : Longnail.Hwgen.iface_binding) ->
              if
                b.ib_opname = "lil.read_custreg"
                && b.ib_stage = stage
                && pending_custreg_writer ~older_than:stage (Option.get b.ib_reg)
              then stall_point := max !stall_point stage)
            f.cf_hw.Longnail.Hwgen.bindings
      | _ -> ()
    done;
    (* 1c. does the instruction at the end of the pipe extend past it? *)
    let hold_at_end = ref false and detach_now = ref false in
    (match t.stages.(last) with
    | Some ({ s_isax = Some f; _ } as sl) ->
        (* on arrival (vstage = 0) the pipe stage itself still gets
           serviced this cycle, so the module extends only if it reaches
           strictly beyond; afterwards, hold until the final virtual stage
           has been serviced *)
        let more =
          if sl.s_vstage > 0 then f.cf_hw.Longnail.Hwgen.max_stage >= sl.s_vstage
          else f.cf_hw.Longnail.Hwgen.max_stage > last
        in
        if more then begin
          if f.cf_mode = Scaiev.Config.Decoupled then detach_now := true
          else begin
            (* tightly-coupled: the whole core stalls *)
            hold_at_end := true;
            stall_point := last
          end
        end
    | _ -> ());
    let frozen = !stall_point in
    (* 2. drive and evaluate the ISAX modules for every occupied stage *)
    set_stall_inputs t ~frozen_below:frozen;
    for stage = 1 to last do
      match t.stages.(stage) with
      | Some ({ s_isax = Some f; s_has_operands = true; _ } as s) ->
          drive_isax_inputs t s f (if stage = last && s.s_vstage > 0 then s.s_vstage else stage)
      | Some ({ s_isax = Some f; _ } as s) when stage <= opstage ->
          drive_isax_inputs t s f stage
      | _ -> ()
    done;
    List.iter (fun (_, sim) -> Rtl.Engine.eval sim) t.sims;
    (* 2a. detached decoupled units keep computing beside the pipe *)
    t.detached <-
      List.filter
        (fun (d : slot) ->
          let f = Option.get d.s_isax in
          drive_isax_inputs t d f d.s_vstage;
          let sim = List.assoc f.cf_name t.sims in
          Rtl.Engine.eval sim;
          service_isax_stage t d f d.s_vstage;
          d.s_vstage <- d.s_vstage + 1;
          if d.s_vstage > f.cf_hw.Longnail.Hwgen.max_stage then begin
            (* out-of-order writeback through the scoreboard *)
            (match d.s_capture.c_rd with
            | Some (rd, v) -> write_gpr t rd (Bitvec.to_int v)
            | None -> ());
            false
          end
          else true)
        t.detached;
    (* 2b. service in-pipe stages, oldest first (write-through ordering);
       stalled slots (at or before the freeze point) do not execute —
       except the held end-of-pipe slot, which services its virtual stage
       while its module's tail keeps running *)
    for stage = last downto frozen + 1 do
      match t.stages.(stage) with
      | Some ({ s_isax = Some f; _ } as s) -> service_isax_stage t s f stage
      | _ -> ()
    done;
    if !hold_at_end then begin
      match t.stages.(last) with
      | Some ({ s_isax = Some f; _ } as s) ->
          let v = if s.s_vstage > 0 then s.s_vstage else last in
          service_isax_stage t s f v;
          s.s_vstage <- v + 1
      | _ -> ()
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
        | Some _ -> (
            match s.s_capture.c_pc with
            | Some pc' -> redirect := Some (Bitvec.to_int pc')
            | None -> ())
        | None ->
            (* the interpreter writes the PC only for taken control
               transfers, a branch to its own address included *)
            if t.st.Interp.pc_written then
              redirect := Some (Bitvec.to_int (Interp.read_reg t.st "PC")));
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
        let word = Bitvec.to_int (Interp.read_mem t.st "MEM" t.fetch_pc 4) in
        match Interp.decode t.st (bv word) with
        | Some ti when ti.ti_name = "EBREAK" -> t.halted <- true
        | Some ti ->
            t.stages.(1) <-
              Some
                {
                  s_pc = t.fetch_pc;
                  s_word = word;
                  s_ti = ti;
                  s_isax = Longnail.Flow.find_func t.compiled ti.ti_name;
                  s_capture = make_capture ();
                  s_rs1v = 0;
                  s_rs2v = 0;
                  s_has_operands = false;
                  s_result = None;
                  s_vstage = 0;
                };
            t.fetch_pc <- (t.fetch_pc + 4) land 0xFFFFFFFF
        | None -> t.halted <- true
      end
    end;
    List.iter (fun (_, sim) -> Rtl.Engine.clock sim) t.sims;
    true
  end

let run ?(fuel = 500_000) t =
  let rec go n =
    if n <= 0 then raise (Machine.Out_of_fuel fuel)
    else if step t then go (n - 1)
    else ()
  in
  go fuel;
  t.cycles
