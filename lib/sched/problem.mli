(** The extensible scheduling-problem model (Table 2 of the paper),
   re-implementing the slice of CIRCT's static scheduling infrastructure
   that Longnail builds on.

   The hierarchy is:
   - [Problem]: operations linked to operator types with a latency;
     solution must respect operand availability.
   - [ChainingProblem]: adds physical propagation delays
     (incoming/outgoing) and start times within a cycle.
   - [LongnailProblem]: adds per-operator-type [earliest]/[latest] bounds,
     which encode the SCAIE-V virtual-datasheet constraints. *)

type operator_type = {
  ot_name : string;
  latency : int;
  incoming_delay : float;
  outgoing_delay : float;
  earliest : int;
  latest : int option;
}
val operator_type :
  ?latency:int ->
  ?incoming_delay:float ->
  ?outgoing_delay:float ->
  ?earliest:int -> ?latest:int -> string -> operator_type
type operation = { op_index : int; lot : operator_type; op_label : string; }
type dependence = { dep_src : int; dep_dst : int; }
type shape
(** The dependence graph's topological order, each operation's incoming
    dependences and the chain breakers. *)

type t = private {
  operations : operation array;
  dependences : dependence array;
  cycle_time : float option;
  mutable start_time : int array;
  mutable start_time_in_cycle : float array;
  shape : shape Lazy.t;
      (** computed once, on first use, from [operations] and
          [dependences]; forcing it raises {!Problem_error} on a cycle *)
}
(** Only {!finish} builds a problem, so [shape] always describes its
    [operations] and [dependences]. *)

exception Problem_error of string
val problem_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
type builder
val builder : unit -> builder
val add_operation : builder -> label:string -> operator_type -> int
val add_dependence : builder -> src:int -> dst:int -> unit
val finish : ?cycle_time:float -> builder -> t
val check_input : t -> unit
val verify_precedence : t -> unit
val verify_chaining : t -> unit
val verify_windows : t -> unit
val verify : t -> unit
val makespan : t -> int
val total_lifetime : t -> int
val chain_breakers : t -> dependence list
(** The dependences that break a combinational chain (C5), in the order
    the topological walk finds them. *)

val compute_start_time_in_cycle : t -> unit

val difference_system : t -> Lp.Netopt.system
(** The Figure 7 ILP with the lifetime variables eliminated: one edge per
    dependence, weighted [latency], or [latency + 1] when the edge is a
    chain breaker; the [earliest]/[latest] windows as bounds; node costs
    [1 + indegree - outdegree]. The ILP scheduler, the ASAP scheduler and
    infeasibility diagnosis all solve this system. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
