(** Content-addressed compilation artifacts (docs/CACHING.md).

    Two halves:

    - {!Fp}: stable structural fingerprints over the values that flow
      between pipeline stages — typed CoreDSL units ({!Coredsl.Tast}),
      MIR graphs ({!Ir.Mir}, SSA-id independent), SCAIE-V virtual
      datasheets ({!Scaiev.Datasheet}) — plus the generic combinators the
      flow uses to key scheduling knobs. Fingerprints are deterministic
      across processes: no [Hashtbl.hash], no physical identity, no
      source locations, no cosmetic hints.
    - {!Store}: a generic keyed artifact store with LRU eviction and
      hit/miss/store/eviction counters, reported per lookup through
      {!Obs} so the [--profile] output and perfbench's traced runs carry
      per-stage cache behaviour. Stores are safe for concurrent use
      from multiple domains (the parallel driver of
      docs/PARALLELISM.md): lookups are single-flight per key. *)

module Fp : sig
  type t = string
  (** A fingerprint: 32 lowercase hex characters (an MD5 of the canonical
      serialization). Exposed as a string so stage keys can be composed
      by concatenation. *)

  (** {2 Generic combinators}

      A [ctx] accumulates the canonical serialization; every combinator
      is injective over its own domain (strings are length-prefixed,
      constructors tagged, floats rendered with [%h]). *)

  type ctx

  val create : unit -> ctx
  val add_tag : ctx -> string -> unit
  val add_string : ctx -> string -> unit
  val add_int : ctx -> int -> unit
  val add_bool : ctx -> bool -> unit
  val add_float : ctx -> float -> unit
  val add_opt : (ctx -> 'a -> unit) -> ctx -> 'a option -> unit
  val add_list : (ctx -> 'a -> unit) -> ctx -> 'a list -> unit
  val finish : ctx -> t

  val digest : (ctx -> unit) -> t
  (** [digest f] runs [f] on a fresh context and finishes it. *)

  (** {2 Domain fingerprints} *)

  val add_bitvec_ty : ctx -> Bitvec.ty -> unit
  val add_bitvec : ctx -> Bitvec.t -> unit

  val tunit : Coredsl.Tast.tunit -> t
  (** Structural fingerprint of a typed unit: elaborated state (registers,
      address spaces, parameters) plus every typed instruction,
      always-block and function body. Source locations are excluded, so
      two elaborations of the same source (even from different files)
      agree; any semantic edit — a literal, an operator, an encoding, a
      register width — changes the fingerprint. *)

  val graph : Ir.Mir.graph -> t
  (** Fingerprint of a MIR graph. SSA value ids are renumbered densely in
      order of first occurrence, so alpha-renamed graphs agree; operation
      names, attributes, operand/result structure, types and region
      nesting all contribute. Cosmetic value hints and op ids do not. *)

  val datasheet : Scaiev.Datasheet.t -> t
  (** Fingerprint of a virtual datasheet: every stage/window/latency field
      plus the ASIC baselines. *)
end

module Disk : sig
  (** Content-addressed {e on-disk} artifact store: the persistent
      sibling of {!Store}, shared across processes so a fresh process —
      or the [longnail serve] daemon after a restart — is served warm.
      One self-describing file per artifact under a versioned root
      ([DIR/v{!format_version}/<md5(key)>.art]); writes are published
      with an atomic rename; corrupted, truncated or wrong-version
      entries are evicted and recomputed, never fatal. Eviction is LRU
      by file mtime against a byte budget. Safe for concurrent use from
      multiple domains and (thanks to atomic publication of
      content-addressed keys) from multiple processes. See
      docs/CACHING.md for the file format. *)

  type stats = {
    hits : int;
    misses : int;
    stores : int;
    evictions : int;
    corrupt : int;  (** entries rejected (and evicted) as invalid *)
    bytes : int;  (** bytes currently on disk (entry files, incl. headers) *)
  }

  type t

  val format_version : int
  (** Version stamp of the store layout {e and} entry encoding. Bumping
      it moves the root to a fresh [v<N>] directory, so incompatible old
      entries are never misread. *)

  val default_budget_bytes : int
  (** 256 MiB. *)

  val open_store : ?budget_bytes:int -> string -> t
  (** [open_store dir] opens (creating if needed) the store rooted at
      [dir/v{!format_version}] and scans existing entries into the size
      accounting. Opening never validates payloads — corruption is
      detected (and healed) lazily on lookup. *)

  val dir : t -> string
  (** The versioned root directory. *)

  val find : t -> ?obs:Obs.scope -> string -> string option
  (** [find t key] returns the stored payload, or [None] on a miss. A
      hit bumps the entry's LRU clock. An invalid entry (truncated,
      corrupted, wrong format version, checksum mismatch) counts as
      [corrupt], is deleted, and reads as a miss. With [obs], records
      [disk.hit] / [disk.miss] / [disk.store] counters on that span (all
      three always present, like {!Store.find_or_add}). *)

  val store : t -> ?obs:Obs.scope -> string -> string -> unit
  (** [store t key payload] atomically publishes [key -> payload]
      (write-temp-then-rename) and then evicts least-recently-used
      entries until the store fits its byte budget. The entry just
      written always survives its own store. *)

  val find_or_add : t -> ?obs:Obs.scope -> string -> (unit -> string) -> string

  val remove : t -> string -> unit

  val length : t -> int
  (** Number of entries currently on disk. *)

  val stats : t -> stats

  val record_stats : t -> name:string -> Obs.scope -> unit
  (** Write cumulative [NAME.hits] / [NAME.misses] / [NAME.stores] /
      [NAME.evictions] / [NAME.corrupt] / [NAME.bytes] metrics onto a
      span. *)
end

module Store : sig
  type stats = { hits : int; misses : int; stores : int; evictions : int }

  type 'v t

  val create : ?capacity:int -> name:string -> unit -> 'v t
  (** A keyed store holding at most [capacity] entries (default 512),
      evicting least-recently-used beyond that. [capacity = 0] disables
      storing entirely: every lookup misses and recomputes — used for
      deliberately cold sessions. *)

  val name : 'v t -> string
  val length : 'v t -> int
  val stats : 'v t -> stats

  val find_or_add : 'v t -> ?obs:Obs.scope -> string -> (unit -> 'v) -> 'v
  (** [find_or_add t key compute] returns the cached value for [key] or
      runs [compute], stores the result and returns it. If [compute]
      raises, nothing is stored and the exception propagates. With [obs],
      records the [cache.hit] / [cache.miss] / [cache.store] counters on
      that span (all three are always present, so the profiling schema is
      identical for cold and warm lookups).

      Concurrent lookups of the same key from several domains are
      single-flight: exactly one domain runs [compute] (outside the
      store lock — independent keys never serialize on each other);
      the others block until the artifact lands and count as hits. If
      the computing domain's [compute] raises, one waiter is promoted
      to retry. [obs] scopes are not shared across domains — each
      caller passes its own. *)

  val mem : 'v t -> string -> bool

  val record_stats : 'v t -> Obs.scope -> unit
  (** Write the store's cumulative [NAME.hits] / [NAME.misses] /
      [NAME.stores] / [NAME.evictions] metrics onto a span. *)
end
