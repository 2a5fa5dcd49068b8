(** Observability substrate for the compile pipeline: a tree of timed
    spans with attached metrics, plus JSON / pretty renderers and the
    metric-name schema used by the CI gate. See docs/OBSERVABILITY.md. *)

type metric =
  | M_int of int
  | M_float of float
  | M_str of string

type span = {
  sp_name : string;
  mutable sp_elapsed_ns : float;
  mutable sp_metrics : (string * metric) list;  (** reverse insertion order *)
  mutable sp_children : span list;  (** reverse order *)
}

type scope
(** A cursor pointing at the span currently being recorded. *)

val create : ?name:string -> unit -> scope
(** Fresh scope with a root span (default name ["root"]). *)

val root : scope -> span
(** The span the scope currently points at. *)

val finish : scope -> unit
(** Close a root scope: set its span's elapsed time to now minus the
    scope's creation time. (Child spans are closed automatically.) *)

val span : scope -> string -> (scope -> 'a) -> 'a
(** [span s name f] runs [f] inside a fresh, timed child span. The span is
    recorded even when [f] raises. *)

val span_opt : scope option -> string -> (scope option -> 'a) -> 'a
(** Optional-scope variant: with [None] just runs the function. *)

val attach : scope -> span -> unit
(** [attach s sp] grafts an independently recorded span tree as the next
    child of the scope's current span. Scopes are single-domain cursors
    and must never be shared across domains; parallel work records into
    one fresh ({!create}d, {!finish}ed) scope per task and the joining
    domain merges the roots in task order with [attach] — the resulting
    tree shape is deterministic regardless of worker scheduling. *)

(** {2 Metrics} *)

val metric_int : scope -> string -> int -> unit
val metric_float : scope -> string -> float -> unit
val metric_str : scope -> string -> string -> unit

val incr : scope -> string -> ?by:int -> unit -> unit
(** Accumulating counter (starts from 0). *)

val incr_opt : scope option -> string -> ?by:int -> unit -> unit

val metric_int_opt : scope option -> string -> int -> unit
val metric_float_opt : scope option -> string -> float -> unit
val metric_str_opt : scope option -> string -> string -> unit

(** {2 Queries} *)

val metrics : span -> (string * metric) list
(** Metrics in insertion order. *)

val children : span -> span list
(** Child spans in recording order. *)

val get_int : span -> string -> int option
val get_str : span -> string -> string option

val all_spans : span -> span list
(** The whole tree, pre-order. *)

val find_span : span -> string -> span option
val find_spans : span -> string -> span list

(** {2 Schema and validation} *)

val generic_name : string -> string
(** ["func:DOTP"] -> ["func:*"]: collapse instance-specific span names. *)

val schema : span -> string list
(** Sorted, distinct ["span NAME"] / ["metric NAME.KEY"] lines — the
    contract diffed in CI against the checked-in schema file. *)

exception Invalid_metrics of string

val validate : span -> unit
(** Raise {!Invalid_metrics} on empty names or non-finite values — the
    CLI calls this before printing a [--profile] tree, so the schema
    gate fails on a malformed one. *)

(** {2 Rendering} *)

val json : span -> Json.t
(** Machine-readable rendering:
    [{"name":..,"elapsed_ms":..,"metrics":{..},"children":[..]}].
    Floats follow {!Json.number_to_string}; a non-finite one renders as
    [0]. *)

val to_json : span -> string
(** [Json.to_string (json sp)]. *)

val pp : Format.formatter -> span -> unit
val to_pretty : span -> string
