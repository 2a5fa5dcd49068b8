(** The shared surface for the scheduling knobs, the cache controls and
    the parallel driver — one table of flag specs with one validator
    ({!set}), used by both the [longnail] CLI (bridged into cmdliner
    terms) and the serve daemon (a request's ["knobs"] object), so the
    two front ends cannot drift apart.

    Flags:
    {v
    --scheduler KIND        ilp (default) or asap
    --delay MODEL           default, physical, or uniform:NS
    --cycle-time NS         target cycle time (default: the core's period)
    --no-hazard-handling    drop the decoupled-mode scoreboard
    --emit BACKEND          sv (SystemVerilog, default) or v2001
    --narrow MODE           analysis-driven width narrowing: on or off (default)
    --jobs N                worker domains for batch compiles (default 1)
    --no-cache              disable artifact retention
    --verify-each           re-verify the IR after every optimization pass
    --cache-capacity N      max entries per artifact store
    --store DIR             persistent on-disk artifact store directory
    --store-budget-mb MB    size budget of the on-disk store (default 256)
    v} *)

(** One flag: [arg = None] is a bare flag, [Some docv] takes a value. *)
type spec = { name : string; arg : string option; doc : string }

val specs : spec list

(** Accumulated settings (start from {!default}, fold {!set}): the
    artifact-changing knobs as one {!Flow.knobs} record, plus the
    compile driver's cache and parallelism controls. *)
type t = {
  knobs : Flow.knobs;
  jobs : int;
  cache_enabled : bool;
  cache_capacity : int option;
  verify_each : bool;
  store_dir : string option;
  store_budget_mb : int option;
}

val default : t

val set : t -> string -> string option -> (t, string) result
(** [set t name value] applies one flag (name without the leading
    [--]); [Error] carries a user-facing usage message. A name outside
    {!specs} answers "unknown knob 'NAME' (available: ...)" with a
    did-you-mean hint. *)

val error_code : string -> string option
(** [error_code name] is the structured diagnostic code for rejections
    of flag [name], when it has one: [--emit] maps to E0913 ("unknown
    emission backend", with did-you-mean suggestions); other flags are
    plain usage errors. *)

val disk : t -> Cache.Disk.t option
(** The persistent store named by [--store DIR] (opened with the
    [--store-budget-mb] budget), or [None]. *)

val session : t -> Flow.session
(** A session honoring [--no-cache] / [--cache-capacity] / [--store] /
    [--store-budget-mb]. *)

val request : ?session:Flow.session -> ?obs:Obs.scope -> t -> Flow.Request.t
(** The {!Flow.Request.t} these settings describe; creates {!session}
    when none is supplied. *)
