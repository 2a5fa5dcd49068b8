(* Register-transfer-level netlist: the target of Longnail's hardware
   generation, standing in for CIRCT's hw/seq/sv dialects (Section 4.1d).

   A module is a set of named signals: input ports, combinational nodes
   (with {!Ir.Comb_eval} semantics), ROM lookups (internalized constant
   registers), and clocked registers (the stallable pipeline registers
   Longnail inserts between stages). Output ports alias internal signals. *)

type reg_node = {
  out : string;
  width : int;
  next : string;  (* sampled input *)
  enable : string option;  (* stall gating: update only when enable=1 *)
  init : Bitvec.t option;
}

type node =
  | Comb of {
      out : string;
      width : int;
      op : string;  (* a comb.* / hw.constant op name *)
      attrs : (string * Ir.Mir.attr) list;
      inputs : string list;
    }
  | Rom of { out : string; width : int; table : Bitvec.t array; index : string }
  | Reg of reg_node

type port = { port_name : string; port_width : int; port_signal : string }

type t = {
  mod_name : string;
  inputs : port list;  (* port_signal = signal it defines *)
  outputs : port list;  (* port_signal = signal it exposes *)
  nodes : node list;
}

let node_out = function Comb c -> c.out | Rom r -> r.out | Reg r -> r.out

let node_width = function Comb c -> c.width | Rom r -> r.width | Reg r -> r.width

exception Netlist_error of string

let nl_error fmt = Format.kasprintf (fun m -> raise (Netlist_error m)) fmt

(* signals read combinationally by a node *)
let comb_deps = function
  | Comb c -> c.inputs
  | Rom r -> [ r.index ]
  | Reg _ -> []  (* registers break combinational cycles *)

(* The netlist with every signal interned: node [i] of [m.nodes] (at
   [node_at.(i)]) defines signal [i], input port [k] defines signal
   [Array.length node_at + k]. [refs.(i)] are the signals node [i] reads
   (a register's next, then its enable), and [order] lists the comb and
   ROM nodes in evaluation order. *)
type sorted = {
  node_at : node array;
  ids : (string, int) Hashtbl.t;
  refs : int array array;
  order : int array;
}

(* One pass over interned ids: name every signal once (rejecting a name
   defined twice), resolve every reference, then sort. Registers break
   combinational cycles; a depth-first walk from every node in list order,
   then from every register's next and enable, then from every output,
   gives the order, and meeting a node under visit is a comb loop. *)
let sort (m : t) =
  let nodes = Array.of_list m.nodes in
  let n = Array.length nodes in
  let ids = Hashtbl.create (2 * (n + List.length m.inputs)) in
  Array.iteri (fun i nd -> Hashtbl.replace ids (node_out nd) i) nodes;
  (* a name defined twice keeps only its last id *)
  if Hashtbl.length ids < n then
    Array.iteri
      (fun i nd ->
        let o = node_out nd in
        if Hashtbl.find ids o <> i then nl_error "signal %s defined twice" o)
      nodes;
  List.iteri
    (fun k p ->
      if Hashtbl.mem ids p.port_signal then nl_error "input %s shadows a node" p.port_signal;
      Hashtbl.replace ids p.port_signal (n + k))
    m.inputs;
  let id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> nl_error "undefined signal %s in module %s" name m.mod_name
  in
  let refs =
    Array.map
      (function
        | Reg r -> Array.of_list (List.map id (r.next :: Option.to_list r.enable))
        | nd -> Array.of_list (List.map id (comb_deps nd)))
      nodes
  in
  (* 0 unvisited, 1 under visit, 2 done; inputs are done from the start *)
  let state = Array.make (n + List.length m.inputs) 2 in
  Array.fill state 0 n 0;
  let order = Array.make n 0 and len = ref 0 in
  let rec visit i =
    if state.(i) = 1 then nl_error "combinational cycle through %s" (node_out nodes.(i))
    else if state.(i) = 0 then begin
      state.(i) <- 1;
      (match nodes.(i) with Reg _ -> () | _ -> Array.iter visit refs.(i));
      state.(i) <- 2;
      match nodes.(i) with
      | Reg _ -> ()
      | _ ->
          order.(!len) <- i;
          incr len
    end
  in
  Array.iteri
    (fun i nd ->
      visit i;
      match nd with Reg _ -> Array.iter visit refs.(i) | _ -> ())
    nodes;
  List.iter (fun p -> visit (id p.port_signal)) m.outputs;
  { node_at = nodes; ids; refs; order = Array.sub order 0 !len }

let topo_nodes m =
  let s = sort m in
  Array.to_list (Array.map (fun i -> s.node_at.(i)) s.order)

let registers m : reg_node list = List.filter_map (function Reg r -> Some r | _ -> None) m.nodes

(* unique signal names, every reference resolved, no comb loop *)
let validate m = ignore (sort m)

(* ---- structural statistics (used by the ASIC flow model) ---- *)

type stats = {
  n_comb_nodes : int;
  n_registers : int;
  register_bits : int;
  rom_bits : int;
  comb_ops_by_kind : (string * int) list;
}

let stats m =
  let kinds = Hashtbl.create 16 in
  let combs = ref 0 and regs = ref 0 and reg_bits = ref 0 and rom_bits = ref 0 in
  List.iter
    (function
      | Comb c ->
          incr combs;
          Hashtbl.replace kinds c.op (1 + Option.value ~default:0 (Hashtbl.find_opt kinds c.op))
      | Rom r -> rom_bits := !rom_bits + (Array.length r.table * r.width)
      | Reg r ->
          incr regs;
          reg_bits := !reg_bits + r.width)
    m.nodes;
  {
    n_comb_nodes = !combs;
    n_registers = !regs;
    register_bits = !reg_bits;
    rom_bits = !rom_bits;
    comb_ops_by_kind = Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds [];
  }
