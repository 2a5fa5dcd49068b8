(* CoreDSL linter: W1xxx warnings over a typed unit.

   Two sources of facts: direct walks of the typed AST (encoding-field and
   register usage, definite assignment of locals) and the dataflow
   instances over the lowered HLIR (dead computations via liveness,
   provably-constant conditions and oversized shifts via ranges, missing
   architectural writes via reaching_writes).  Base-ISA instructions are
   skipped by default — the linter targets the user's ISAX. *)

open Coredsl.Tast
module M = Ir.Mir

let lint_codes =
  [
    ("W1001", "dead assignment: computed value is never used");
    ("W1002", "unused encoding field");
    ("W1003", "unused architectural register");
    ("W1004", "branch condition is provably constant");
    ("W1005", "shift amount provably >= operand width");
    ("W1006", "local read before any assignment");
    ("W1007", "instruction writes no architectural state");
    ("W1008", "architectural write provably truncates its value");
    ("W1009", "comparison is provably constant (bit-level analysis)");
    ("W1010", "result bits can never toggle");
  ]

let span_of loc = Coredsl.Ast.span_of_loc loc

let warn ?span code fmt =
  Format.kasprintf (fun m -> Diag.make ~severity:Diag.Warning ?span ~code m) fmt

let promote ds =
  List.map
    (fun (d : Diag.t) ->
      if d.severity = Diag.Warning then { d with Diag.severity = Diag.Error } else d)
    ds

(* ------------------------------------------------------------------ *)
(* Generic TAST traversal: visit every expression in evaluation order. *)

let rec iter_expr f (e : texpr) =
  f e;
  match e.te with
  | T_lit _ | T_local _ | T_field _ | T_reg _ -> ()
  | T_regfile (_, i) | T_rom (_, i) -> iter_expr f i
  | T_mem { addr; _ } -> iter_expr f addr
  | T_binop (_, a, b) | T_concat (a, b) ->
      iter_expr f a;
      iter_expr f b
  | T_unop (_, a) | T_cast a -> iter_expr f a
  | T_extract { value; lo; _ } ->
      iter_expr f value;
      iter_expr f lo
  | T_ternary (c, a, b) ->
      iter_expr f c;
      iter_expr f a;
      iter_expr f b
  | T_call (_, args) -> List.iter (iter_expr f) args

let rec iter_stmt f (s : tstmt) =
  (match s.ts with
  | S_local_decl (_, _, e) -> Option.iter (iter_expr f) e
  | S_assign_local (_, e) | S_assign_reg (_, e) | S_expr e -> iter_expr f e
  | S_assign_regfile (_, i, v) ->
      iter_expr f i;
      iter_expr f v
  | S_assign_mem { addr; value; _ } ->
      iter_expr f addr;
      iter_expr f value
  | S_if (c, t, e) ->
      iter_expr f c;
      List.iter (iter_stmt f) t;
      List.iter (iter_stmt f) e
  | S_for { init; cond; step; body } ->
      List.iter (iter_stmt f) init;
      iter_expr f cond;
      List.iter (iter_stmt f) step;
      List.iter (iter_stmt f) body
  | S_spawn body -> List.iter (iter_stmt f) body
  | S_return e -> Option.iter (iter_expr f) e);
  ()

let iter_stmts f ss = List.iter (iter_stmt f) ss

(* ------------------------------------------------------------------ *)
(* W1002: encoding fields never read by the behavior.                  *)

let unused_fields (ti : tinstr) =
  let used = Hashtbl.create 8 in
  iter_stmts
    (fun e -> match e.te with T_field n -> Hashtbl.replace used n () | _ -> ())
    ti.ti_behavior;
  let anchor =
    match ti.ti_behavior with s :: _ -> Some (span_of s.tsloc) | [] -> None
  in
  List.filter_map
    (fun (f : field_info) ->
      if Hashtbl.mem used f.fld_name then None
      else
        Some
          (warn ?span:anchor "W1002"
             "instruction %s: encoding field '%s' is never read" ti.ti_name
             f.fld_name))
    ti.fields

(* ------------------------------------------------------------------ *)
(* W1006: local read before any assignment (definite-assignment walk). *)

(* Union semantics at joins: a local assigned on *some* path is treated as
   assigned afterwards, so only reads that no execution path can have
   initialized are reported. *)
let read_before_assign ~what ?(pre = []) (body : tstmt list) =
  let declared = Hashtbl.create 8 in
  let assigned = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace assigned n ()) pre;
  let warns = ref [] in
  let reported = Hashtbl.create 8 in
  let check_expr e =
    iter_expr
      (fun e ->
        match e.te with
        | T_local n
          when Hashtbl.mem declared n
               && (not (Hashtbl.mem assigned n))
               && not (Hashtbl.mem reported n) ->
            Hashtbl.replace reported n ();
            warns :=
              warn ~span:(span_of e.tloc) "W1006"
                "%s: local '%s' is read before any assignment" what (source_name n)
              :: !warns
        | _ -> ())
      e
  in
  let rec stmt (s : tstmt) =
    match s.ts with
    | S_local_decl (n, _, init) ->
        Option.iter check_expr init;
        Hashtbl.replace declared n ();
        if init <> None then Hashtbl.replace assigned n ()
    | S_assign_local (n, e) ->
        check_expr e;
        Hashtbl.replace assigned n ()
    | S_assign_reg (_, e) | S_expr e -> check_expr e
    | S_assign_regfile (_, i, v) ->
        check_expr i;
        check_expr v
    | S_assign_mem { addr; value; _ } ->
        check_expr addr;
        check_expr value
    | S_if (c, t, e) ->
        check_expr c;
        List.iter stmt t;
        List.iter stmt e
    | S_for { init; cond; step; body } ->
        List.iter stmt init;
        check_expr cond;
        List.iter stmt body;
        List.iter stmt step
    | S_spawn body -> List.iter stmt body
    | S_return e -> Option.iter check_expr e
  in
  List.iter stmt body;
  List.rev !warns

(* ------------------------------------------------------------------ *)
(* MIR-level lints over a lowered HLIR graph.                          *)

let span_key = function
  | None -> "<none>"
  | Some (s : Diag.span) -> Printf.sprintf "%s:%d:%d" s.sp_file s.sp_line s.sp_col

let is_lintable_compute (op : M.op) =
  op.results <> []
  && (not (Ir.Passes.has_side_effect op))
  && op.opname <> "coredsl.field"
  && op.opname <> "hw.constant"

(* Predicate machinery the HLIR lowering generates eagerly and DCE later
   removes: the negated else-branch predicate ([x == 0] over an i1) and the
   predicated-write merge mux (whose condition also predicates a state
   write). Dead instances are compiler artifacts, not user dead code. *)
let is_lowering_artifact defs uses (op : M.op) =
  match op.opname with
  | "hwarith.icmp" -> (
      match (op.M.operands, M.attr_str op "predicate") with
      | [ a; b ], Some "eq" ->
          a.M.vty.Bitvec.width = 1
          && (match Hashtbl.find_opt defs b.M.vid with
             | Some (d : M.op) -> d.opname = "hw.constant"
             | None -> false)
      | _ -> false)
  | "hwarith.mux" -> (
      match op.M.operands with
      | p :: _ -> (
          match Hashtbl.find_opt uses p.M.vid with
          | Some users -> List.exists Ir.Passes.has_side_effect users
          | None -> false)
      | [] -> false)
  | _ -> false

(* Loop unrolling clones ops sharing one source span; report each
   (code, span, message) once. *)
let dedup_push seen out (d : Diag.t) =
  let k = (d.Diag.code, span_key d.Diag.span, d.Diag.message) in
  if not (Hashtbl.mem seen k) then begin
    Hashtbl.replace seen k ();
    out := d :: !out
  end

let mir_lints ~what ~is_instruction (g : M.graph) =
  let ops = M.all_ops g in
  let uses = M.use_map g in
  let defs = M.def_map g in
  let live = Dataflow.run Dataflow.liveness g in
  let rng = lazy (Dataflow.run Dataflow.ranges g) in
  let range_of v = (Lazy.force rng).Dataflow.fact_of v in
  (* The bit-level product analysis, for the W1008-W1010 lints: shared by
     the whole graph walk and only forced when a candidate op exists. *)
  let ai = lazy (Absint.analyze g) in
  let afact v = Absint.fact_of (Lazy.force ai) v in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let push d = dedup_push seen out d in
  List.iter
    (fun (op : M.op) ->
      (* W1001: dead computation roots — no user at all, confirmed dead by
         the liveness analysis (side-effecting ops are never dead). *)
      if
        is_lintable_compute op
        && (not (is_lowering_artifact defs uses op))
        && List.for_all
             (fun (r : M.value) ->
               (match Hashtbl.find_opt uses r.vid with
               | None | Some [] -> true
               | Some _ -> false)
               && not (live.Dataflow.fact_of r))
             op.results
      then begin
        let msg =
          match (op.opname, M.attr_str op "state") with
          | "coredsl.get", Some st ->
              Printf.sprintf "%s: value read from %s is never used" what st
          | _ -> Printf.sprintf "%s: computed value is never used" what
        in
        push (Diag.make ~severity:Diag.Warning ?span:op.oloc ~code:"W1001" msg)
      end;
      (* W1008: an architectural write whose value rides through a
         narrowing cast the analysis proves always loses the value — the
         source interval lies entirely outside the destination's range. *)
      if Ir.Passes.has_side_effect op then
        List.iter
          (fun (v : M.value) ->
            match Hashtbl.find_opt defs v.M.vid with
            | Some (d : M.op) when d.opname = "hwarith.cast" -> (
                match d.M.operands with
                | [ src ] when src.M.vty.Bitvec.width > v.M.vty.Bitvec.width -> (
                    match afact src with
                    | Some f ->
                        let dst = Dataflow.range_of_ty v.M.vty in
                        let r = f.Absint.f_range in
                        if
                          Bitvec.Bn.compare r.Dataflow.lo dst.Dataflow.hi > 0
                          || Bitvec.Bn.compare r.Dataflow.hi dst.Dataflow.lo < 0
                        then
                          push
                            (warn ?span:op.oloc "W1008"
                               "%s: written value is provably truncated (a %d-bit \
                                value never representable in %d bits)"
                               what src.M.vty.Bitvec.width v.M.vty.Bitvec.width)
                    | None -> ())
                | _ -> ())
            | _ -> ())
          op.operands;
      (* W1004: comparison / branch condition provably constant. *)
      (match op.opname with
      | "hwarith.icmp" -> (
          match op.results with
          | [ r ] -> (
              match Option.bind (range_of r) Dataflow.range_exact with
              | Some v ->
                  let truth = if Bitvec.Bn.is_zero v then "false" else "true" in
                  push
                    (warn ?span:op.oloc "W1004"
                       "%s: comparison is always %s" what truth)
              | None -> (
                  (* W1009: the intervals alone could not decide, but the
                     bit-level product can. *)
                  match Option.bind (afact r) Absint.decide_bool with
                  | Some b ->
                      push
                        (warn ?span:op.oloc "W1009"
                           "%s: comparison is always %s (bit-level analysis)" what
                           (if b then "true" else "false"))
                  | None -> ()))
          | _ -> ())
      | "hwarith.mux" -> (
          match op.operands with
          | cond :: _ -> (
              let cond_is_icmp =
                match Hashtbl.find_opt defs cond.M.vid with
                | Some d -> d.M.opname = "hwarith.icmp"
                | None -> false
              in
              if not cond_is_icmp then
                match Option.bind (range_of cond) Dataflow.range_exact with
                | Some v ->
                    let truth =
                      if Bitvec.Bn.is_zero v then "false" else "true"
                    in
                    push
                      (warn ?span:op.oloc "W1004"
                         "%s: condition is always %s" what truth)
                | None -> ())
          | [] -> ())
      | "hwarith.shl" | "hwarith.shr" -> (
          (* W1005: the shift amount's lower bound reaches the operand
             width, so the result is provably degenerate. *)
          match op.operands with
          | [ x; amt ] -> (
              match range_of amt with
              | Some r
                when Bitvec.Bn.compare r.Dataflow.lo
                       (Bitvec.Bn.of_int x.M.vty.Bitvec.width)
                     >= 0 ->
                  push
                    (warn ?span:op.oloc "W1005"
                       "%s: shift amount is always >= the operand width (%d)"
                       what x.M.vty.Bitvec.width)
              | _ -> ())
          | _ -> ())
      | "hwarith.add" | "hwarith.sub" | "hwarith.mul" | "comb.add" | "comb.sub"
      | "comb.mul" -> (
          (* W1010: arithmetic result bits the analysis proves stuck beyond
             what the value's interval already explains (restricted to
             arithmetic so structural shift/concat zeros stay silent). *)
          match op.results with
          | [ r ]
            when match Hashtbl.find_opt uses r.M.vid with
                 | Some (_ :: _) -> true
                 | _ -> false -> (
              match afact r with
              | Some f ->
                  let w = r.M.vty.Bitvec.width in
                  let known = Absint.known_count ~width:w f.Absint.f_bits in
                  let explained =
                    Absint.known_count ~width:w
                      (Absint.bits_from_range r.M.vty f.Absint.f_range)
                  in
                  if known < w && known > explained then
                    push
                      (warn ?span:op.oloc "W1010"
                         "%s: %d of %d result bits can never toggle" what
                         (known - explained) w)
              | None -> ())
          | _ -> ())
      | _ -> ()))
    ops;
  let out = List.rev !out in
  (* W1007: an instruction whose behavior writes no architectural state
     compiles to dead hardware. *)
  if is_instruction && Dataflow.reaching_writes g = [] then
    let anchor =
      List.find_map (fun (op : M.op) -> op.M.oloc) ops
    in
    out
    @ [
        warn ?span:anchor "W1007"
          "%s: writes no architectural state (no register, memory or PC \
           update)" what;
      ]
  else out

(* ------------------------------------------------------------------ *)
(* W1003: architectural registers never referenced anywhere.           *)

let unused_registers (tu : tunit) =
  let used = Hashtbl.create 8 in
  let note_expr e =
    match e.te with
    | T_reg n | T_regfile (n, _) | T_rom (n, _) -> Hashtbl.replace used n ()
    | _ -> ()
  in
  (* Register *references* count from every body, including the base
     ISA's: X/PC are used by base instructions even if no ISAX touches
     them. *)
  let rec note_stmt (s : tstmt) =
    match s.ts with
    | S_assign_reg (n, _) | S_assign_regfile (n, _, _) ->
        Hashtbl.replace used n ()
    | S_if (_, t, e) ->
        List.iter note_stmt t;
        List.iter note_stmt e
    | S_for { init; step; body; _ } ->
        List.iter note_stmt init;
        List.iter note_stmt step;
        List.iter note_stmt body
    | S_spawn body -> List.iter note_stmt body
    | _ -> ()
  in
  let walk body =
    iter_stmts note_expr body;
    List.iter note_stmt body
  in
  List.iter (fun (ti : tinstr) -> walk ti.ti_behavior) tu.tinstrs;
  List.iter (fun (ta : talways) -> walk ta.ta_body) tu.talways;
  List.iter (fun (tf : tfunc) -> walk tf.tf_body) tu.tfuncs;
  List.filter_map
    (fun (r : Coredsl.Elaborate.reg) ->
      if r.rname = "X" || r.is_pc || r.rconst || Hashtbl.mem used r.rname then
        None
      else
        Some
          (warn "W1003" "architectural register '%s' is never referenced"
             r.rname))
    tu.elab.Coredsl.Elaborate.regs

(* ------------------------------------------------------------------ *)

let base_instr_names =
  lazy
    (let names = Hashtbl.create 64 in
     let add (tu : tunit) =
       List.iter
         (fun (ti : tinstr) -> Hashtbl.replace names ti.ti_name ())
         tu.tinstrs
     in
     add (Coredsl.compile_rv32i ());
     add (Coredsl.compile_rv32im ());
     names)

let lint_unit ?(include_base = false) (tu : tunit) =
  let base = Lazy.force base_instr_names in
  let is_base n = (not include_base) && Hashtbl.mem base n in
  let acc = ref [] in
  let add ds = acc := !acc @ ds in
  List.iter
    (fun (ti : tinstr) ->
      if not (is_base ti.ti_name) then begin
        let what = Printf.sprintf "instruction %s" ti.ti_name in
        add (unused_fields ti);
        add (read_before_assign ~what ti.ti_behavior);
        match Ir.Hlir.lower_instruction tu ti with
        | g -> add (mir_lints ~what ~is_instruction:true g)
        | exception (Ir.Hlir.Lower_error _ | Diag.Fatal _) -> ()
      end)
    tu.tinstrs;
  List.iter
    (fun (ta : talways) ->
      let what = Printf.sprintf "always block %s" ta.ta_name in
      add (read_before_assign ~what ta.ta_body);
      match Ir.Hlir.lower_always tu ta with
      | g -> add (mir_lints ~what ~is_instruction:false g)
      | exception (Ir.Hlir.Lower_error _ | Diag.Fatal _) -> ())
    tu.talways;
  List.iter
    (fun (tf : tfunc) ->
      let what = Printf.sprintf "function %s" tf.tf_name in
      add
        (read_before_assign ~what
           ~pre:(List.map fst tf.tf_params)
           tf.tf_body))
    tu.tfuncs;
  add (unused_registers tu);
  !acc
