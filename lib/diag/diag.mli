(** Structured compiler diagnostics with source provenance.

    Every user-facing error in the Longnail flow is a {!t}: a severity, a
    stable registered code (["E0xxx"]), a human message, an optional primary
    source span, labeled secondary spans, and free-form notes.  Diagnostics
    render either as caret-snippet text (rustc-style) or as JSON for
    machine consumption; see docs/DIAGNOSTICS.md. *)

type severity = Error | Warning | Note

val severity_to_string : severity -> string

(** A half-open source region. Lines and columns are 1-based; a point span
    has [sp_end_line = sp_line] and [sp_end_col = sp_col]. *)
type span = {
  sp_file : string;
  sp_line : int;
  sp_col : int;
  sp_end_line : int;
  sp_end_col : int;
}

val no_span : span
(** Placeholder span ([file = "<unknown>"], [line = 0]) for diagnostics that
    have no source attribution. *)

val point : file:string -> line:int -> col:int -> span
(** Point span at [file:line:col]. *)

val span_is_valid : span -> bool
(** A span is valid when it names a file and has [sp_line >= 1] and
    [sp_col >= 1]. *)

val pp_span : Format.formatter -> span -> unit
(** Renders as ["file:line:col"]. *)

type label = { lb_span : span; lb_text : string }

type t = {
  severity : severity;
  code : string;
  message : string;
  span : span option;
  labels : label list;
  notes : string list;
}

val make :
  ?severity:severity ->
  ?span:span ->
  ?labels:label list ->
  ?notes:string list ->
  code:string ->
  string ->
  t

val errorf :
  ?span:span ->
  ?labels:label list ->
  ?notes:string list ->
  code:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [errorf ~code fmt ...] builds an error diagnostic with a formatted
    message. *)

exception Fatal of t list
(** Raised by pipeline stages that cannot continue.  The payload is ordered:
    first element is the primary failure. *)

val fatal : t -> 'a
(** [fatal d] raises {!Fatal} [[d]]. *)

val fatalf :
  ?span:span ->
  ?labels:label list ->
  ?notes:string list ->
  code:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Formatted variant of {!fatal}. *)

(** {1 Collector} *)

(** Accumulates diagnostics across independent units of work (e.g. one per
    instruction) so a single run can report every error. *)
type collector

val collector : unit -> collector
val add : collector -> t -> unit
val has_errors : collector -> bool
val to_list : collector -> t list
(** In insertion order. *)

(** {1 Error-code registry} *)

val all_codes : (string * string) list
(** Every registered [(code, description)] pair, sorted by code.  The CLI's
    [diag --list-codes] prints this and CI diffs it against
    docs/ERROR_CODES.txt. *)

val describe : string -> string option
val is_registered : string -> bool

val explain_notes : string -> string list
(** Longer-form guidance printed by [diag --explain CODE] under the
    registry description; [[]] for codes with no extra notes. *)

(** {1 Source registry}

    Caret snippets need the text of the file a span points into.  Compile
    entry points register each source buffer here under the file name used
    in its locations. *)

val register_source : file:string -> string -> unit
val lookup_source : file:string -> string option
val source_line : file:string -> line:int -> string option
val clear_sources : unit -> unit

(** {1 Rendering} *)

val render_text : Format.formatter -> t -> unit
(** Header line plus caret snippet (when the span's source is registered),
    labeled secondary snippets, and notes. *)

val render_all : Format.formatter -> t list -> unit

val to_string : t -> string
(** [render_text] into a string. *)

val json : t list -> Json.t
(** [{"diagnostics":[...]}] with stable field names; see
    docs/DIAGNOSTICS.md for the schema. *)

val to_json : t list -> string
(** [Json.to_string (json ds)]. *)

val levenshtein : string -> string -> int
(** Edit distance (insertions, deletions, substitutions), the metric
    behind every did-you-mean hint. *)
