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
type t = {
  operations : operation array;
  dependences : dependence list;
  cycle_time : float option;
  mutable start_time : int array;
  mutable start_time_in_cycle : float array;
}
exception Problem_error of string
val problem_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
type builder = {
  mutable ops_rev : operation list;
  mutable deps : dependence list;
}
val builder : unit -> builder
val add_operation : builder -> label:string -> operator_type -> int
val add_dependence : builder -> src:int -> dst:int -> unit
val finish : ?cycle_time:float -> builder -> t
val topo_order : t -> int list
val check_input : t -> unit
val verify_precedence : t -> unit
val verify_chaining : t -> unit
val verify_windows : t -> unit
val verify : t -> unit
val makespan : t -> int
val total_lifetime : t -> int
val chain_breakers : t -> dependence list
val compute_start_time_in_cycle : t -> unit

val difference_system : t -> Lp.Netopt.system
(** The Figure 7 ILP with the lifetime variables eliminated: one edge per
    dependence, weighted [latency], or [latency + 1] when the edge is a
    chain breaker; the [earliest]/[latest] windows as bounds; node costs
    [1 + indegree - outdegree]. The ILP backend, {!Ilp_scheduler.Incremental},
    the ASAP scheduler and infeasibility diagnosis all solve this system. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
