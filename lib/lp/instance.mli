(** Persistent integer difference-system instance, kept alive across the
    re-schedules of a DSE sweep. Edge endpoints and costs are fixed at
    {!create}; edge weights and bounds move between resolves, and a
    resolve warm-starts {!Netopt.asap} from the previous least element
    whenever the system only tightened. Warm and cold resolves return the
    same value vector. *)

type klass =
  | Difference  (** no negative cost: the least element is optimal *)
  | Netflow  (** some negative cost: min-cut ascent from the least element *)

val klass_name : klass -> string

(** Cumulative counters across every {!resolve} of one instance. *)
type stats = {
  is_resolves : int;
  is_warm_hits : int;  (** resolves that warm-started from the previous least element *)
  is_bf_rounds : int;  (** Bellman-Ford relaxation sweeps *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type t

val create : Netopt.system -> t
(** Snapshot a system (the arrays are copied). *)

val classify : t -> klass
val nedges : t -> int

val update_weight : t -> int -> int -> unit
(** [update_weight t e w] sets the weight of edge [e]. Raises
    [Invalid_argument] when [e] is out of range. *)

val update_bounds : t -> int -> lower:int -> upper:int option -> unit
(** Raises [Invalid_argument] when the variable is out of range. *)

val resolve : t -> [ `Optimal of int array | `Infeasible | `Unbounded ]

val stats : t -> stats
