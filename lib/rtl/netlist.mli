(** Register-transfer-level netlist: the target of Longnail's hardware
   generation, standing in for CIRCT's hw/seq/sv dialects (Section 4.1d).

   A module is a set of named signals: input ports, combinational nodes
   (with {!Ir.Comb_eval} semantics), ROM lookups (internalized constant
   registers), and clocked registers (the stallable pipeline registers
   Longnail inserts between stages). Output ports alias internal signals. *)

type reg_node = {
  out : string;
  width : int;
  next : string;
  enable : string option;
  init : Bitvec.t option;
}
type node =
    Comb of { out : string; width : int; op : string;
      attrs : (string * Ir.Mir.attr) list; inputs : string list;
    }
  | Rom of { out : string; width : int; table : Bitvec.t array;
      index : string;
    }
  | Reg of reg_node
type port = { port_name : string; port_width : int; port_signal : string; }
type t = {
  mod_name : string;
  inputs : port list;
  outputs : port list;
  nodes : node list;
}
val node_out : node -> string
val node_width : node -> int
exception Netlist_error of string
val nl_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
val comb_deps : node -> string list

(** A netlist with every signal interned to an int id: node [i] of
    [node_at] (the module's node list, in order) defines signal [i], input
    port [k] defines signal [Array.length node_at + k]. *)
type sorted = {
  node_at : node array;
  ids : (string, int) Hashtbl.t;  (** signal name -> id *)
  refs : int array array;
      (** per node, the ids it reads: a comb node's inputs, a ROM's
          index, a register's next then enable *)
  order : int array;  (** comb and ROM node ids in evaluation order *)
}

(** Intern and topologically sort in one pass. Raises {!Netlist_error} on
    a signal defined twice, an input shadowing a node, an undefined
    signal or a combinational cycle. *)
val sort : t -> sorted

(** [sort]'s order as nodes: registers are left out, every comb and ROM
    node comes after the signals it reads. *)
val topo_nodes : t -> node list

val registers : t -> reg_node list

(** [sort] for its checks alone. *)
val validate : t -> unit
type stats = {
  n_comb_nodes : int;
  n_registers : int;
  register_bits : int;
  rom_bits : int;
  comb_ops_by_kind : (string * int) list;
}
val stats : t -> stats
