(** The [longnail serve] compile daemon (docs/SERVE.md): a long-running
    process that keeps one {!Longnail.Flow.session} (and optionally a
    persistent {!Cache.Disk} store) warm across many requests, speaking
    line-delimited JSON over a Unix-domain socket.

    Wire protocol, one JSON object per line in both directions:
    {v
    -> {"id":1,"op":"compile","isax":"zbb_subset","cores":["vexriscv","cva5"],
        "knobs":{"scheduler":"asap"},"jobs":4,"profile":true}
    <- {"id":1,"event":"target","ok":true,"core":"vexriscv","funcs":[...],"yaml":"..."}
    <- {"id":1,"event":"target","ok":true,"core":"cva5",...}
    <- {"id":1,"event":"done","ok":true,"op":"compile","targets":2,"failed":0,"profile":{...}}
    v}

    Every request is answered by zero or more ["event":"target"] lines
    followed by exactly one ["event":"done"] line echoing the request
    [id] (JSON [null] when absent). Errors never kill the daemon: a
    malformed request gets a done-event carrying an E0910 diagnostic, a
    failing compile target gets a per-target diagnostic while its batch
    siblings still answer, and transport problems close only the one
    connection (E0911 is reserved for client/daemon transport faults).
    Ops: [ping], [stats], [compile], [lint], [dse], [shutdown]. *)

module Json = Json
(** The wire codec is the shared {!Json} library; this alias keeps the
    [Server.Json] path working for the protocol's clients. *)

val protocol_version : int

type t
(** A daemon: the listening socket plus the shared compile session. *)

val create : ?jobs:int -> session:Longnail.Flow.session -> socket:string -> unit -> t
(** Bind a Unix-domain socket at [socket] and prepare to serve requests
    against [session]. [jobs] is the default worker-domain count for
    requests that do not name their own (default 1). A stale socket file
    left by a dead daemon is unlinked and reclaimed; raises
    {!Diag.Fatal} (E0911) when a live daemon already answers on the
    path, when the path exists but is not a socket, or when binding
    fails. *)

val session : t -> Longnail.Flow.session

val requests_served : t -> int
(** Request lines handled so far (including malformed ones). *)

val handle_line : t -> string -> string list
(** The pure protocol step: one request line in, the response lines out
    (no transport). Exposed so tests and tooling can drive the protocol
    without sockets; {!serve} calls exactly this per received line. *)

val serve : t -> unit
(** Run the accept/dispatch loop on the calling domain until {!stop} or
    a [shutdown] request. Single-threaded by design — requests are
    handled in arrival order, and a request's internal parallelism comes
    from its [jobs] worker domains. SIGPIPE is ignored for the loop's
    duration; on exit every connection is closed and the socket file
    unlinked. *)

val stop : t -> unit
(** Ask a running {!serve} loop to exit; safe to call from another
    domain (the loop polls between [select] rounds, so it winds down
    within its poll interval). *)

(** Client-side helpers for the same wire protocol — used by the
    [longnail client] subcommand, perfbench's serve workload and the tests. *)
module Client : sig
  type t

  val connect : ?retries:int -> ?retry_delay:float -> string -> t
  (** Connect to a daemon socket, retrying a refused/missing socket
      [retries] extra times [retry_delay] seconds apart (defaults 0 and
      0.1 — pass [~retries] when racing a just-spawned daemon). Raises
      {!Diag.Fatal} (E0911) when every attempt fails. *)

  val close : t -> unit

  val send : t -> string -> unit
  (** Send one request line ([send] appends the newline). *)

  val recv : t -> string option
  (** Next response line, [None] at end of stream. *)

  val request : t -> string -> Json.t list
  (** [send] one request, then collect response lines through the
      terminating ["event":"done"] line, parsed. Raises {!Diag.Fatal}
      (E0911) if the stream ends early or a line is not JSON. *)

  val shutdown_server : string -> unit
  (** Connect to [path] and ask the daemon to exit. *)
end
