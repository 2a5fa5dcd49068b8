(* Elaboration of CoreDSL descriptions.

   Resolves imports, flattens InstructionSet inheritance chains into the
   providing Core (or a stand-alone set), evaluates ISA parameters, and
   resolves the architectural state into concrete registers, register files,
   ROMs and address spaces with fixed widths. The result is the input to
   {!Typecheck}. *)

module Bn = Bitvec.Bn
open Ast

exception Elab_error of Diag.t

let elab_error ?(code = "E0200") loc fmt =
  Format.kasprintf
    (fun m ->
      (* builtin constructs have no source position: emit a spanless
         diagnostic rather than an invalid <builtin>:0:0 span *)
      let span = if loc = no_loc then None else Some (span_of_loc loc) in
      raise (Elab_error (Diag.make ?span ~code m)))
    fmt

(* ---- constant expression evaluation ---- *)

(* The width a type or cast declares: 1 to [max_width] bits. *)
let type_width v =
  match Bitvec.to_int_opt v with Some w when w >= 1 && w <= max_width -> Some w | _ -> None

(* Environment for compile-time evaluation: parameters and local constants. *)
type cenv = { vars : (string * Bitvec.t) list }

(* Raised by [eval_const] for a name, a call or an array initializer: the
   expression is not a compile-time constant at all. A constant whose
   evaluation fails raises [Elab_error] E0204 instead. *)
exception Not_constant of loc * string

(* a constant used as a bit index, shift amount or range bound *)
let small_int loc v =
  match Bitvec.to_int_opt v with
  | Some i when i >= 0 -> i
  | _ -> elab_error ~code:"E0204" loc "constant %s is not a valid bit index" (Bitvec.to_string v)

let rec eval_const (env : cenv) (e : expr) : Bitvec.t =
  match e.e with
  | Lit { value; forced = Some ty } -> Bitvec.of_bn ty value
  | Lit { value; forced = None } ->
      if Bn.compare value Bn.zero >= 0 then
        Bitvec.of_bn (Bitvec.unsigned_ty (max 1 (Bn.num_bits value))) value
      else Bitvec.of_bn (Bitvec.signed_ty (Bn.num_bits (Bn.neg value) + 1)) value
  | Ident name -> (
      match List.assoc_opt name env.vars with
      | Some v -> v
      | None ->
          raise (Not_constant (e.eloc, Printf.sprintf "'%s' is not a compile-time constant" name)))
  | Binop (op, a, b) -> const_binop e.eloc op (eval_const env a) (eval_const env b)
  | Unop (Neg, a) -> Bitvec.neg (eval_const env a)
  | Unop (Not, a) -> Bitvec.lognot (eval_const env a)
  | Unop (Lnot, a) -> Bitvec.of_bool (Bitvec.is_zero (eval_const env a))
  | Cast ({ cast_signed; cast_width }, a) -> (
      let v = eval_const env a in
      match cast_width with
      | None -> Bitvec.reinterpret_sign cast_signed v
      | Some w -> (
          match type_width (eval_const env w) with
          | Some w -> Bitvec.cast (Bitvec.ty ~width:w ~signed:cast_signed) v
          | None -> elab_error ~code:"E0204" e.eloc "cast width must be from 1 to %d" max_width))
  | Concat (a, b) -> Bitvec.concat (eval_const env a) (eval_const env b)
  | Ternary (c, t, f) ->
      if Bitvec.to_bool (eval_const env c) then eval_const env t else eval_const env f
  | Range (a, hi, lo) -> (
      let v = eval_const env a in
      let hi = small_int e.eloc (eval_const env hi) in
      let lo = small_int e.eloc (eval_const env lo) in
      try Bitvec.extract v ~hi ~lo
      with Bitvec.Width_error m -> elab_error ~code:"E0204" e.eloc "%s" m)
  | Index (a, i) -> (
      let v = eval_const env a in
      let i = small_int e.eloc (eval_const env i) in
      try Bitvec.bit v i with Bitvec.Width_error m -> elab_error ~code:"E0204" e.eloc "%s" m)
  | Call (name, _) ->
      raise (Not_constant (e.eloc, Printf.sprintf "call to '%s' in constant expression" name))
  | Array_init _ ->
      raise (Not_constant (e.eloc, "array initializer in scalar constant expression"))

and const_binop loc op a b =
  let module B = Bitvec in
  let divisor b =
    if B.is_zero b then elab_error ~code:"E0204" loc "division by zero in constant expression";
    b
  in
  match op with
  | Add -> B.add a b
  | Sub -> B.sub a b
  | Mul -> B.mul a b
  | Div -> B.div a (divisor b)
  | Rem -> B.rem a (divisor b)
  | Shl -> B.shift_left a (small_int loc b)
  | Shr -> B.shift_right a (small_int loc b)
  | And -> B.logand a b
  | Or -> B.logor a b
  | Xor -> B.logxor a b
  | Land -> B.of_bool (B.to_bool a && B.to_bool b)
  | Lor -> B.of_bool (B.to_bool a || B.to_bool b)
  | Eq -> B.of_bool (B.eq a b)
  | Ne -> B.of_bool (B.ne a b)
  | Lt -> B.of_bool (B.lt a b)
  | Le -> B.of_bool (B.le a b)
  | Gt -> B.of_bool (B.gt a b)
  | Ge -> B.of_bool (B.ge a b)

let const_eval env e =
  try eval_const env e with Not_constant (loc, m) -> elab_error ~code:"E0204" loc "%s" m

(* [None] only when [e] is not a constant expression at all *)
let const_eval_opt env e = try Some (eval_const env e) with Not_constant _ -> None

let const_eval_int env e = Bitvec.to_int (const_eval env e)

(* Resolve a type expression to a concrete Bitvec type. *)
let resolve_ty env loc = function
  | Ty_int { signed; width } -> (
      let v = const_eval env width in
      match type_width v with
      | Some w -> Bitvec.ty ~width:w ~signed
      | None -> elab_error loc "type width must be from 1 to %d, got %s" max_width (Bitvec.to_string v))
  | Ty_void -> elab_error loc "void type is only allowed as a function return type"
  | Ty_alias a -> elab_error loc "unresolved type alias '%s'" a

(* ---- elaborated state model ---- *)

type reg = {
  rname : string;
  rty : Bitvec.ty;
  elems : int;  (* 1 for scalar registers *)
  is_pc : bool;
  rconst : bool;  (* ROM: internalized by synthesis *)
  rinit : Bitvec.t array option;
}

type addr_space = {
  sname : string;
  elem_ty : Bitvec.ty;
  space_size : Bn.t;
  is_main_mem : bool;
}

type elaborated = {
  ename : string;
  params : (string * Bitvec.t) list;
  regs : reg list;
  spaces : addr_space list;
  instructions : instruction list;
  always : always_block list;
  functions : func list;
  digest : string;
}

let find_reg el name = List.find_opt (fun r -> r.rname = name) el.regs
let find_space el name = List.find_opt (fun s -> s.sname = name) el.spaces
let pc_reg el = List.find_opt (fun r -> r.is_pc) el.regs
let main_mem el = List.find_opt (fun s -> s.is_main_mem) el.spaces

(* ---- import resolution and inheritance flattening ---- *)

type provider = string -> string option
(** maps an import path to CoreDSL source text *)

type loaded = {
  sets : (string, instr_set) Hashtbl.t;
  cores : (string, core_def) Hashtbl.t;
  imports : (string * string) list;  (* (path, text) of every import, in load order *)
}

(* Parse [src] and all transitive imports; return every InstructionSet and
   Core seen, later definitions shadowing earlier ones by name. *)
let load ?diags ~(provider : provider) ~file src =
  let seen_imports = Hashtbl.create 8 and imports = ref [] in
  let sets = Hashtbl.create 8 and cores = Hashtbl.create 8 in
  (* [chain] is the stack of import sites that led to [file], innermost
     first; it becomes the provenance labels of unresolved-import errors *)
  let rec go chain file src =
    Diag.register_source ~file src;
    let desc = Parser.parse ?diags ~file src in
    List.iter
      (fun (path, iloc) ->
        if not (Hashtbl.mem seen_imports path) then begin
          Hashtbl.add seen_imports path ();
          match provider path with
          | Some s ->
              imports := (path, s) :: !imports;
              go (iloc :: chain) path s
          | None ->
              let labels =
                List.map
                  (fun l -> { Diag.lb_span = span_of_loc l; lb_text = "imported here" })
                  chain
              in
              raise
                (Elab_error
                   (Diag.errorf ~span:(span_of_loc iloc) ~labels ~code:"E0201"
                      "cannot resolve import \"%s\"" path))
        end)
      desc.imports;
    List.iter (fun s -> Hashtbl.replace sets s.set_name s) desc.sets;
    List.iter (fun c -> Hashtbl.replace cores c.core_name c) desc.cores
  in
  go [] file src;
  { sets; cores; imports = List.rev !imports }

(* Chain of instruction sets from the root ancestor down to [name]. *)
let inheritance_chain sets name =
  let rec go name acc =
    match Hashtbl.find_opt sets name with
    | None -> elab_error ~code:"E0202" no_loc "unknown instruction set '%s'" name
    | Some s -> (
        match s.extends with
        | None -> s :: acc
        | Some parent ->
            if List.exists (fun x -> x.set_name = parent) acc then
              elab_error ~code:"E0203" no_loc "cyclic inheritance involving '%s'" parent;
            go parent (s :: acc))
  in
  go name []

let concat_isa isas =
  List.fold_left
    (fun acc isa ->
      {
        state = acc.state @ isa.state;
        instructions = acc.instructions @ isa.instructions;
        always = acc.always @ isa.always;
        functions = acc.functions @ isa.functions;
      })
    empty_isa isas

(* Build the flattened ISA for a target. The target is either a Core (its
   provided sets plus its own sections) or a bare InstructionSet. *)
let flatten { sets; cores; _ } target =
  match Hashtbl.find_opt cores target with
  | Some core ->
      let provided = List.concat_map (fun s -> inheritance_chain sets s) core.provides in
      (* deduplicate sets included via multiple inheritance paths *)
      let seen = Hashtbl.create 8 in
      let provided =
        List.filter
          (fun s ->
            if Hashtbl.mem seen s.set_name then false
            else begin
              Hashtbl.add seen s.set_name ();
              true
            end)
          provided
      in
      concat_isa (List.map (fun s -> s.set_isa) provided @ [ core.core_isa ])
  | None ->
      let chain = inheritance_chain sets target in
      concat_isa (List.map (fun s -> s.set_isa) chain)

(* ---- state resolution ---- *)

let elaborate_state isa =
  (* first pass: parameters, in declaration order; later (Core-level)
     assignments override earlier defaults *)
  let params = ref [] in
  let env () = { vars = !params } in
  List.iter
    (fun d ->
      if d.storage = St_param then begin
        let ty = resolve_ty (env ()) d.dloc d.dty in
        let v =
          match d.init with
          | Some e -> Bitvec.cast ty (const_eval (env ()) e)
          | None -> Bitvec.zero ty
        in
        params := (d.dname, v) :: List.remove_assoc d.dname !params
      end)
    isa.state;
  let regs = ref [] and spaces = ref [] in
  List.iter
    (fun d ->
      match d.storage with
      | St_param | St_local -> ()
      | St_register | St_const ->
          let ty = resolve_ty (env ()) d.dloc d.dty in
          let elems = match d.array_size with None -> 1 | Some e -> const_eval_int (env ()) e in
          if elems <= 0 then elab_error ~code:"E0205" d.dloc "register file '%s' has no elements" d.dname;
          let rinit =
            match d.init with
            | None -> None
            | Some { e = Array_init es; _ } ->
                let vals = List.map (fun e -> Bitvec.cast ty (const_eval (env ()) e)) es in
                if List.length vals > elems then
                  elab_error ~code:"E0205" d.dloc "initializer for '%s' has too many elements" d.dname;
                let a = Array.make elems (Bitvec.zero ty) in
                List.iteri (fun i v -> a.(i) <- v) vals;
                Some a
            | Some e -> Some [| Bitvec.cast ty (const_eval (env ()) e) |]
          in
          if d.storage = St_const && rinit = None then
            elab_error ~code:"E0205" d.dloc "const register '%s' requires an initializer" d.dname;
          let r =
            {
              rname = d.dname;
              rty = ty;
              elems;
              is_pc = List.mem "is_pc" d.attrs;
              rconst = d.storage = St_const;
              rinit;
            }
          in
          regs := r :: List.filter (fun x -> x.rname <> d.dname) !regs
      | St_extern ->
          let ty = resolve_ty (env ()) d.dloc d.dty in
          let size =
            match d.array_size with
            | Some e -> Bitvec.to_bn (const_eval (env ()) e)
            | None -> elab_error ~code:"E0205" d.dloc "address space '%s' requires a size" d.dname
          in
          let s =
            {
              sname = d.dname;
              elem_ty = ty;
              space_size = size;
              is_main_mem = List.mem "is_main_mem" d.attrs || d.dname = "MEM";
            }
          in
          spaces := s :: List.filter (fun x -> x.sname <> d.dname) !spaces)
    isa.state;
  (List.rev !params, List.rev !regs, List.rev !spaces)

(* The unit's content key: an MD5 over the target name, the main source
   text and every import's path and text, length-prefixed, in load order.
   These bytes are all elaboration reads, so equal digests mean equal
   typed units. The main file's name is left out, like source locations:
   the same source under another name shares every artifact. *)
let source_digest ~target src imports =
  let b = Buffer.create (String.length src + 1024) in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  add target;
  add src;
  List.iter
    (fun (path, text) ->
      add path;
      add text)
    imports;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Elaborate [target] (a Core or InstructionSet name) from [src] and its
   imports. *)
let elaborate ?diags ?(provider : provider = fun _ -> None) ?(file = "<input>") ~target src =
  let loaded = load ?diags ~provider ~file src in
  let isa = flatten loaded target in
  let params, regs, spaces = elaborate_state isa in
  (* instructions/always/functions: later definitions override earlier ones
     with the same name (a Core can refine an inherited instruction) *)
  let dedup_keep_last key items =
    let seen = Hashtbl.create 8 in
    List.rev
      (List.fold_left
         (fun acc x ->
           if Hashtbl.mem seen (key x) then
             (* replace earlier occurrence *)
             List.map (fun y -> if key y = key x then x else y) acc
           else begin
             Hashtbl.add seen (key x) ();
             x :: acc
           end)
         [] items)
  in
  {
    ename = target;
    params;
    regs;
    spaces;
    instructions = dedup_keep_last (fun i -> i.iname) isa.instructions;
    always = dedup_keep_last (fun a -> a.aname) isa.always;
    functions = dedup_keep_last (fun f -> f.fname) isa.functions;
    digest = source_digest ~target src loaded.imports;
  }
