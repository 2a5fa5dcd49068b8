(* The host-core registry (see core_registry.mli and docs/CORES.md).

   Descriptors live in registration order; the four Table-4 paper cores
   are registered first (in the order the bench tables print them),
   then the ported cores, then the Section-7 outlook prototypes. The
   registry validates every descriptor at registration time so a
   mistyped datasheet fails fast, before any consumer sees it. *)

type kind = Paper | Ported | Outlook

type timing = {
  fsm_base : int;
  mem_wait : int;
  branch_penalty : int;
  decoupled_issue_stall : int;
}

type sim = { reset_pc : int; sp_init : int }

type t = {
  name : string;
  slug : string;
  kind : kind;
  datasheet : Datasheet.t;
  timing : timing;
  sim : sim;
  summary : string;
}

exception Registration_error of string

(* ---- well-formedness ---- *)

let validate (d : t) =
  let ds = d.datasheet in
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  if d.slug = "" then err "empty slug";
  if d.slug <> String.lowercase_ascii d.slug then err "slug '%s' is not lowercase" d.slug;
  if String.lowercase_ascii d.name <> d.slug then
    err "slug '%s' does not match display name '%s'" d.slug d.name;
  if ds.core_name <> d.name then
    err "datasheet core_name '%s' does not match descriptor name '%s'" ds.core_name d.name;
  (* FSM flag consistent with the stage count *)
  if ds.is_fsm && ds.pipeline_stages <> 0 then
    err "FSM core declares %d pipeline stages (expected 0)" ds.pipeline_stages;
  if (not ds.is_fsm) && ds.pipeline_stages <= 0 then
    err "pipelined core declares %d pipeline stages" ds.pipeline_stages;
  (* stage indices: operand read strictly before writeback, memory no
     later than writeback, everything within the pipeline depth *)
  if ds.operand_stage < 0 then err "negative operand stage %d" ds.operand_stage;
  if ds.operand_stage >= ds.writeback_stage then
    err "operand stage %d not before writeback stage %d" ds.operand_stage ds.writeback_stage;
  if ds.memory_stage > ds.writeback_stage then
    err "memory stage %d past writeback stage %d" ds.memory_stage ds.writeback_stage;
  if (not ds.is_fsm) && ds.writeback_stage > ds.pipeline_stages - 1 then
    err "writeback stage %d outside the %d-stage pipeline" ds.writeback_stage ds.pipeline_stages;
  (* interface windows *)
  List.iter
    (fun (name, (w : Datasheet.window)) ->
      if w.earliest < 0 then err "%s: negative earliest stage %d" name w.earliest;
      if w.latency < 0 then err "%s: negative latency %d" name w.latency;
      match w.native_latest with
      | Some l ->
          if w.earliest > l then err "%s: earliest %d > native latest %d" name w.earliest l;
          if (not ds.is_fsm) && l > ds.pipeline_stages - 1 then
            err "%s: native latest %d outside the %d-stage pipeline" name l ds.pipeline_stages
      | None ->
          (* no in-pipeline upper bound: only meaningful for FSM cores *)
          if not ds.is_fsm then err "%s: pipelined core without a native latest stage" name)
    ds.ifaces;
  (* baselines and timing parameters *)
  if ds.base_area_um2 <= 0.0 then err "non-positive baseline area %g" ds.base_area_um2;
  if ds.base_freq_mhz <= 0.0 then err "non-positive baseline frequency %g" ds.base_freq_mhz;
  if d.timing.fsm_base < 1 then err "timing: fsm_base %d < 1" d.timing.fsm_base;
  if d.timing.mem_wait < 0 then err "timing: negative mem_wait %d" d.timing.mem_wait;
  if d.timing.branch_penalty < 0 then
    err "timing: negative branch_penalty %d" d.timing.branch_penalty;
  if d.timing.decoupled_issue_stall < 0 then
    err "timing: negative decoupled_issue_stall %d" d.timing.decoupled_issue_stall;
  List.rev !bad

(* ---- the registry ---- *)

let registered : t list ref = ref []

let register d =
  (match validate d with
  | [] -> ()
  | violations ->
      raise
        (Registration_error
           (Printf.sprintf "core '%s': %s" d.slug (String.concat "; " violations))));
  if List.exists (fun r -> r.slug = d.slug) !registered then
    raise (Registration_error (Printf.sprintf "core '%s' is already registered" d.slug));
  registered := !registered @ [ d ]

let of_kind k = List.filter (fun d -> d.kind = k) !registered

let all ?(include_outlook = false) () =
  List.filter
    (fun d -> match d.kind with Paper | Ported -> true | Outlook -> include_outlook)
    !registered

let paper_cores () = of_kind Paper
let outlook () = of_kind Outlook
let datasheets ?include_outlook () = List.map (fun d -> d.datasheet) (all ?include_outlook ())
let paper_datasheets () = List.map (fun d -> d.datasheet) (paper_cores ())
let names ?include_outlook () = List.map (fun d -> d.name) (all ?include_outlook ())
let slugs ?include_outlook () = List.map (fun d -> d.slug) (all ?include_outlook ())

let find name =
  let n = String.lowercase_ascii name in
  List.find_opt (fun d -> d.slug = n) !registered

let find_exn name =
  match find name with
  | Some d -> d
  | None -> raise (Registration_error (Printf.sprintf "core '%s' is not registered" name))

let find_datasheet name = Option.map (fun d -> d.datasheet) (find name)

let of_datasheet (ds : Datasheet.t) = find ds.core_name

(* ---- did-you-mean ---- *)

let suggest name =
  let n = String.lowercase_ascii name in
  !registered
  |> List.filter_map (fun d ->
         let dist = Diag.levenshtein n d.slug in
         let budget = max 2 (String.length d.slug / 3) in
         if dist <= budget || (n <> "" && String.starts_with ~prefix:n d.slug) then
           Some (dist, d.slug)
         else None)
  |> List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2)
  |> List.map snd
  |> fun l -> List.filteri (fun i _ -> i < 3) l

let resolve name =
  match find name with
  | Some d -> Ok d
  | None ->
      let available = String.concat ", " (slugs ~include_outlook:true ()) in
      let hint =
        match suggest name with
        | [] -> ""
        | [ s ] -> Printf.sprintf "; did you mean '%s'?" s
        | ss -> Printf.sprintf "; did you mean one of %s?" (String.concat ", " ss)
      in
      Error (Printf.sprintf "unknown core '%s' (available: %s)%s" name available hint)

let validate_all () =
  List.filter_map
    (fun d -> match validate d with [] -> None | v -> Some (d.slug, v))
    !registered

(* ---- the fifth core: mriscv ----

   An open-source educational RV32I core with the classic five-stage
   organization (IF/ID/EX/MEM/WB, fetch = time step 0): register read
   ports in decode (stage 1), data memory in stage 3, writeback in
   stage 4, and a stall-on-use interlock instead of a forwarding path
   from writeback. The paper never saw this core — it exists here to
   exercise the portability claim. Interface windows follow the same
   shape as the VexRiscv datasheet with the operand read one stage
   earlier (the classic decode-stage read ports). *)

let mriscv =
  let window = Datasheet.window in
  {
    Datasheet.core_name = "mriscv";
    pipeline_stages = 5;
    is_fsm = false;
    operand_stage = 1;
    memory_stage = 3;
    writeback_stage = 4;
    forwarding_from_writeback = false;
    ifaces =
      [
        ("RdInstr", window 1 ~native_latest:4);
        ("RdRS1", window 1 ~native_latest:4);
        ("RdRS2", window 1 ~native_latest:4);
        ("RdPC", window 1 ~native_latest:4);
        ("RdMem", window 3 ~native_latest:4 ~latency:1);
        ("WrRD", window 2 ~native_latest:4);
        ("WrPC", window 1 ~native_latest:4);
        ("WrMem", window 3 ~native_latest:4 ~latency:1);
        ("RdCustReg", window 1 ~native_latest:4);
        ("WrCustReg", window 1 ~native_latest:4);
      ];
    base_area_um2 = 5890.0;
    base_freq_mhz = 612.0;
  }

(* ---- built-in registrations ----

   Cycle-cost parameters mirror the presets [Riscv.Machine] shipped
   with (the pipelined cores share the bus model; PicoRV32's FSM
   charges three states per instruction against a faster local
   memory); mriscv resolves branches in execute, so a taken branch
   flushes three younger stages. ISS defaults: reset at address 0,
   stack at 0x10000 (the CLI/cosim convention). *)

let default_sim = { reset_pc = 0; sp_init = 0x10000 }
let pipelined_timing = { fsm_base = 1; mem_wait = 9; branch_penalty = 4; decoupled_issue_stall = 1 }

let () =
  register
    {
      name = "ORCA";
      slug = "orca";
      kind = Paper;
      datasheet = Datasheet.orca;
      timing = pipelined_timing;
      sim = default_sim;
      summary = "VectorBlox ORCA: 5-stage pipeline, late operands, forwarding from writeback";
    };
  register
    {
      name = "Piccolo";
      slug = "piccolo";
      kind = Paper;
      datasheet = Datasheet.piccolo;
      timing = { pipelined_timing with branch_penalty = 2 };
      sim = default_sim;
      summary = "Bluespec Piccolo: 3-stage pipeline, single-stage interface windows";
    };
  register
    {
      name = "PicoRV32";
      slug = "picorv32";
      kind = Paper;
      datasheet = Datasheet.picorv32;
      timing = { fsm_base = 3; mem_wait = 4; branch_penalty = 2; decoupled_issue_stall = 1 };
      sim = default_sim;
      summary = "PicoRV32: FSM-sequenced (non-pipelined), no native interface upper bounds";
    };
  register
    {
      name = "VexRiscv";
      slug = "vexriscv";
      kind = Paper;
      datasheet = Datasheet.vexriscv;
      timing = pipelined_timing;
      sim = default_sim;
      summary = "VexRiscv: 5-stage pipeline, the paper's primary evaluation core";
    };
  register
    {
      name = "mriscv";
      slug = "mriscv";
      kind = Ported;
      datasheet = mriscv;
      timing = { pipelined_timing with branch_penalty = 3 };
      sim = default_sim;
      summary = "mriscv: classic RV32I 5-stage (IF/ID/EX/MEM/WB), stall-on-use interlock";
    };
  register
    {
      name = "CVA5";
      slug = "cva5";
      kind = Outlook;
      datasheet = Datasheet.cva5;
      timing = pipelined_timing;
      sim = default_sim;
      summary = "OpenHW CVA5 (ex-Taiga): 7-stage application-class prototype (Section 7)";
    };
  register
    {
      name = "CVA6";
      slug = "cva6";
      kind = Outlook;
      datasheet = Datasheet.cva6;
      timing = pipelined_timing;
      sim = default_sim;
      summary = "OpenHW CVA6 (ex-Ariane): 6-stage application-class prototype (Section 7)";
    }
