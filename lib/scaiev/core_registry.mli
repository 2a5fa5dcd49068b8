(** The host-core registry: one first-class descriptor per supported core.

    The paper's portability claim (Section 5.2) is that one CoreDSL
    description retargets across host cores purely through SCAIE-V
    virtual datasheets. This module makes that claim structural: a
    {!t} bundles everything the rest of the system needs to know about
    a host core — the virtual datasheet (Figure 9), the cycle-cost
    timing parameters consumed by [Riscv.Machine], the ISS execution
    defaults, and the Table-4 ASIC baselines (carried inside the
    datasheet) — and every consumer (CLI [--core] parsing and
    [longnail cores], the serve daemon's request validation, the bench
    grids, the per-core test loops) enumerates or looks cores up here
    instead of pattern-matching on core names. Adding host core #N
    touches exactly one registration site: a [register] call with a
    fully-populated descriptor (see docs/CORES.md for the walkthrough,
    using mriscv as the worked example).

    Enumeration classes:
    - {e paper} — the four Table-4 evaluation cores (ORCA, Piccolo,
      PicoRV32, VexRiscv). Golden artifacts and the Table-4 bench
      columns are pinned to exactly these, in registration order.
    - {e ported} — cores added after the paper to exercise the
      portability claim (mriscv). [all] = paper + ported.
    - {e outlook} — the Section-7 application-class prototypes (CVA5,
      CVA6); folded into enumerations only behind
      [~include_outlook:true]. *)

type kind = Paper | Ported | Outlook

(** Cycle-cost model parameters consumed by [Riscv.Machine]. Plain data
    (no [Riscv] types) so the registry can live below [lib/riscv] in
    the library stack. *)
type timing = {
  fsm_base : int;  (** FSM sequencing states charged per instruction *)
  mem_wait : int;  (** extra cycles per data-memory access *)
  branch_penalty : int;  (** flushed cycles per taken branch *)
  decoupled_issue_stall : int;  (** issue stall per decoupled ISAX *)
}

(** ISS execution defaults used by [longnail run] and the cosimulation
    harnesses. *)
type sim = {
  reset_pc : int;  (** program-counter value after reset *)
  sp_init : int;  (** initial stack-pointer (x2) value *)
}

type t = {
  name : string;  (** canonical display name, e.g. ["VexRiscv"] *)
  slug : string;  (** lowercase lookup key, e.g. ["vexriscv"] *)
  kind : kind;
  datasheet : Datasheet.t;
  timing : timing;
  sim : sim;
  summary : string;  (** one-line description for docs and [longnail cores] *)
}

exception Registration_error of string

val register : t -> unit
(** Add a descriptor. Raises {!Registration_error} on a duplicate slug,
    a slug/datasheet name mismatch, or any {!validate} violation — a
    mistyped datasheet fails at registration, not mid-compile. *)

(** {1 Enumeration} *)

val all : ?include_outlook:bool -> unit -> t list
(** Paper + ported descriptors in registration order; with
    [~include_outlook:true], the outlook descriptors follow. *)

val paper_cores : unit -> t list
val outlook : unit -> t list

val datasheets : ?include_outlook:bool -> unit -> Datasheet.t list
val paper_datasheets : unit -> Datasheet.t list
val names : ?include_outlook:bool -> unit -> string list
val slugs : ?include_outlook:bool -> unit -> string list

(** {1 Lookup} *)

val find : string -> t option
(** Case-insensitive lookup by slug or display name, over every
    registered descriptor (outlook included). *)

val find_exn : string -> t
(** Like {!find}; raises {!Registration_error} when absent. *)

val find_datasheet : string -> Datasheet.t option

val of_datasheet : Datasheet.t -> t option
(** The descriptor registered under a datasheet's [core_name], if any —
    the bridge for consumers holding only a [Datasheet.t]. *)

val resolve : string -> (t, string) result
(** {!find}, with the uniform error message every front end shows for
    an unknown core: the available slug list plus the {!Diag.Choice.hint}
    for the lower-cased name. The CLI [--core] converter and the serve
    daemon both use this, so their messages can never drift apart. *)

(** {1 Well-formedness} *)

val validate : t -> string list
(** Datasheet/descriptor invariant violations (empty = well-formed):
    interface windows within the pipeline depth, [earliest <=
    native_latest], operand stage before writeback, FSM flag consistent
    with the stage count, positive baseline area/frequency, positive
    timing parameters. Checked at {!register} time and property-tested
    over every registered core. *)

val validate_all : unit -> (string * string list) list
(** [(slug, violations)] for every registered descriptor that fails
    {!validate} (empty = registry well-formed). *)

(** {1 The fifth core}

    The mriscv datasheet is defined here, inside its registration
    entry, to keep "add a core" a one-site change; it is re-exported
    for tests and examples. *)

val mriscv : Datasheet.t
