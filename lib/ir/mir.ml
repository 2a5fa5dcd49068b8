(* A miniature MLIR-like SSA IR.

   Stands in for the MLIR/CIRCT infrastructure of the paper (Section 4).
   Operations are generic records identified by a dialect-qualified name
   ("hwarith.add", "lil.read_rs1", ...) with typed operands and results,
   attributes, and nested regions (used by spawn blocks). Graphs are flat
   operation lists in SSA form; def-use information is computed on demand.

   Two dialect levels are built on this module:
   - {!Hlir}: the high-level coredsl+hwarith representation (Figure 5b)
   - {!Lil}: the CDFG with explicit SCAIE-V interface ops (Figure 5c) *)

type value = { vid : int; vty : Bitvec.ty; vhint : string }

type attr =
  | A_int of int
  | A_str of string
  | A_bv of Bitvec.t
  | A_bool of bool

type op = {
  oid : int;
  opname : string;
  operands : value list;
  results : value list;
  attrs : (string * attr) list;
  regions : op list list;
  (* CoreDSL source span this op was lowered from; carried through every
     rewrite so back-end errors can cite the originating source line. Not
     printed by [pp_op] (graph text is compared structurally by passes). *)
  oloc : Diag.span option;
}

(* A lil.graph / coredsl.instruction / coredsl.always container. *)
type graph = {
  gname : string;
  gkind : [ `Instruction | `Always | `Function ];
  gattrs : (string * attr) list;
  body : op list;
}

(* ---- builder ---- *)

type builder = {
  mutable next_v : int;
  mutable next_o : int;
  mutable ops : op list;
  (* ambient source location: ops created while set inherit it *)
  mutable cur_loc : Diag.span option;
}

let builder () = { next_v = 0; next_o = 0; ops = []; cur_loc = None }

let set_loc b loc = b.cur_loc <- loc

let fresh_value b ?(hint = "") ty =
  let v = { vid = b.next_v; vty = ty; vhint = hint } in
  b.next_v <- b.next_v + 1;
  v

(* Create an op with [n] results of the given types and append it. The op
   location defaults to the builder's ambient [cur_loc]. *)
let add_op b ?(attrs = []) ?(regions = []) ?(hints = []) ?loc opname operands result_tys =
  let results =
    List.mapi
      (fun i ty -> fresh_value b ~hint:(try List.nth hints i with _ -> "") ty)
      result_tys
  in
  let oloc = match loc with Some _ -> loc | None -> b.cur_loc in
  let op = { oid = b.next_o; opname; operands; results; attrs; regions; oloc } in
  b.next_o <- b.next_o + 1;
  b.ops <- op :: b.ops;
  op

let add_op1 b ?attrs ?regions ?(hint = "") ?loc opname operands result_ty =
  let op = add_op b ?attrs ?regions ~hints:[ hint ] ?loc opname operands [ result_ty ] in
  List.hd op.results

let finish b ~name ~kind ?(attrs = []) () =
  { gname = name; gkind = kind; gattrs = attrs; body = List.rev b.ops }

(* ---- attribute access ---- *)

let attr op name = List.assoc_opt name op.attrs

let attr_int op name =
  match attr op name with Some (A_int i) -> Some i | _ -> None

let attr_str op name =
  match attr op name with Some (A_str s) -> Some s | _ -> None

let attr_bv op name = match attr op name with Some (A_bv v) -> Some v | _ -> None
let attr_bool op name = match attr op name with Some (A_bool v) -> v | _ -> false

(* ---- traversal ---- *)

(* All ops in a graph, including ops nested in regions, pre-order. *)
let rec all_ops_in body =
  List.concat_map (fun op -> op :: List.concat_map all_ops_in op.regions) body

let all_ops g = all_ops_in g.body

(* Map from value id to its defining op. *)
let def_map g =
  let t = Hashtbl.create 64 in
  List.iter (fun op -> List.iter (fun r -> Hashtbl.replace t r.vid op) op.results) (all_ops g);
  t

(* Map from value id to the ops using it. *)
let use_map g =
  let t = Hashtbl.create 64 in
  List.iter
    (fun op ->
      List.iter
        (fun v ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt t v.vid) in
          Hashtbl.replace t v.vid (op :: prev))
        op.operands)
    (all_ops g);
  t

(* ---- printing (MLIR-flavoured) ---- *)

let ty_suffix (t : Bitvec.ty) =
  Printf.sprintf "%s%d" (if t.Bitvec.signed then "si" else "ui") t.Bitvec.width

let pp_attr fmt = function
  | A_int i -> Format.fprintf fmt "%d" i
  | A_str s -> Format.fprintf fmt "%S" s
  | A_bv v -> Format.fprintf fmt "%s : %s" (Bitvec.to_string v) (ty_suffix (Bitvec.typ v))
  | A_bool b -> Format.fprintf fmt "%b" b

let rec pp_op ?(indent = 2) fmt op =
  let pad = String.make indent ' ' in
  Format.fprintf fmt "%s" pad;
  (match op.results with
  | [] -> ()
  | rs ->
      List.iteri
        (fun i r -> Format.fprintf fmt "%s%%%d" (if i > 0 then ", " else "") r.vid)
        rs;
      Format.fprintf fmt " = ");
  Format.fprintf fmt "%s" op.opname;
  (match op.operands with
  | [] -> ()
  | os ->
      Format.fprintf fmt " ";
      List.iteri
        (fun i o -> Format.fprintf fmt "%s%%%d" (if i > 0 then ", " else "") o.vid)
        os);
  if op.attrs <> [] then begin
    Format.fprintf fmt " {";
    List.iteri
      (fun i (k, v) ->
        Format.fprintf fmt "%s%s = %a" (if i > 0 then ", " else "") k pp_attr v)
      op.attrs;
    Format.fprintf fmt "}"
  end;
  (match (op.operands, op.results) with
  | [], [] -> ()
  | ops, res ->
      Format.fprintf fmt " : (%s) -> (%s)"
        (String.concat ", " (List.map (fun v -> ty_suffix v.vty) ops))
        (String.concat ", " (List.map (fun v -> ty_suffix v.vty) res)));
  List.iter
    (fun region ->
      Format.fprintf fmt " {\n";
      List.iter (fun o -> Format.fprintf fmt "%a\n" (pp_op ~indent:(indent + 2)) o) region;
      Format.fprintf fmt "%s}" pad)
    op.regions

let pp_graph fmt g =
  let kind =
    match g.gkind with
    | `Instruction -> "instruction"
    | `Always -> "always"
    | `Function -> "function"
  in
  Format.fprintf fmt "%s @%s" kind g.gname;
  if g.gattrs <> [] then begin
    Format.fprintf fmt " {";
    List.iteri
      (fun i (k, v) -> Format.fprintf fmt "%s%s = %a" (if i > 0 then ", " else "") k pp_attr v)
      g.gattrs;
    Format.fprintf fmt "}"
  end;
  Format.fprintf fmt " {\n";
  List.iter (fun o -> Format.fprintf fmt "%a\n" (pp_op ~indent:2) o) g.body;
  Format.fprintf fmt "}"

let graph_to_string g = Format.asprintf "%a" pp_graph g

(* ---- rewriting support ---- *)

(* Rebuild a graph replacing values according to [subst] (vid -> value) and
   dropping ops for which [keep] is false. Region bodies are rewritten
   recursively. *)
let rewrite g ~subst ~keep =
  let s v = match Hashtbl.find_opt subst v.vid with Some v' -> v' | None -> v in
  let rec go body =
    List.filter_map
      (fun op ->
        if not (keep op) then None
        else
          Some { op with operands = List.map s op.operands; regions = List.map go op.regions })
      body
  in
  { g with body = go g.body }
