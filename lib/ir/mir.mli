(** A miniature MLIR-like SSA IR.

   Stands in for the MLIR/CIRCT infrastructure of the paper (Section 4).
   Operations are generic records identified by a dialect-qualified name
   ("hwarith.add", "lil.read_rs1", ...) with typed operands and results,
   attributes, and nested regions (used by spawn blocks). Graphs are flat
   operation lists in SSA form; def-use information is computed on demand.

   Two dialect levels are built on this module:
   - {!Hlir}: the high-level coredsl+hwarith representation (Figure 5b)
   - {!Lil}: the CDFG with explicit SCAIE-V interface ops (Figure 5c) *)

type value = { vid : int; vty : Bitvec.ty; vhint : string; }
type attr =
    A_int of int
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
  oloc : Diag.span option;
      (** CoreDSL source span this op was lowered from; preserved by every
          rewrite, not printed by {!pp_op} *)
}
type graph = {
  gname : string;
  gkind : [ `Always | `Function | `Instruction ];
  gattrs : (string * attr) list;
  body : op list;
}
type builder = {
  mutable next_v : int;
  mutable next_o : int;
  mutable ops : op list;
  mutable cur_loc : Diag.span option;
}
val builder : unit -> builder
val set_loc : builder -> Diag.span option -> unit
val fresh_value : builder -> ?hint:string -> Bitvec.ty -> value
val add_op :
  builder ->
  ?attrs:(string * attr) list ->
  ?regions:op list list ->
  ?hints:string list ->
  ?loc:Diag.span -> string -> value list -> Bitvec.ty list -> op
val add_op1 :
  builder ->
  ?attrs:(string * attr) list ->
  ?regions:op list list ->
  ?hint:string -> ?loc:Diag.span -> string -> value list -> Bitvec.ty -> value
val finish :
  builder ->
  name:string ->
  kind:[ `Always | `Function | `Instruction ] ->
  ?attrs:(string * attr) list -> unit -> graph
val attr : op -> string -> attr option
val attr_int : op -> string -> int option
val attr_str : op -> string -> string option
val attr_bv : op -> string -> Bitvec.t option
val attr_bool : op -> string -> bool
val all_ops_in : op list -> op list
val all_ops : graph -> op list
val def_map : graph -> (int, op) Hashtbl.t
val use_map : graph -> (int, op list) Hashtbl.t
val ty_suffix : Bitvec.ty -> string
val pp_attr : Format.formatter -> attr -> unit
val pp_op : ?indent:int -> Format.formatter -> op -> unit
val pp_graph : Format.formatter -> graph -> unit
val graph_to_string : graph -> string
val rewrite :
  graph -> subst:(int, value) Hashtbl.t -> keep:(op -> bool) -> graph
