(** The one JSON codec of the tree: the value type, a compact writer and
    a parser, shared by diagnostics ({!Diag.to_json}), profiles
    ({!Obs.to_json}), the serve wire protocol and perfbench's reports.

    The parser accepts a strict superset of what the writer emits.
    Numbers are floats; a number that overflows to infinity
    (["1e999"]) is rejected, so a non-finite value never crosses the
    wire. Strings are UTF-8: a ["\uXXXX"] escape needs exactly four hex
    digits, a surrogate pair decodes to one 4-byte character, and a lone
    surrogate is an error. Duplicate object keys keep the first binding
    via {!member}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer. *)

val parse : string -> (t, string) result
(** Whole-string parse; [Error] carries a message with a byte offset. *)

val to_string : t -> string
(** Compact rendering (no whitespace), object fields in list order.
    Strings escape quote, backslash, newline, tab and carriage return
    with their short forms and other control bytes as [\u00xx]; every
    other byte passes through. *)

val number_to_string : float -> string
(** The one number rule: the shortest of [%.15g], [%.16g] and [%.17g]
    that reads back as the same float. Integral values below [1e15]
    therefore print bare (["3"], not ["3."]) and stay parseable by
    [int_of_string]; a non-finite value prints as ["0"]. *)

val member : string -> t -> t
(** [member k j] is the [k] field of object [j], or [Null] when absent
    or when [j] is not an object. *)

val get_string : t -> string option

val get_int : t -> int option
(** [Num] with an integral value. *)

val get_float : t -> float option
val get_bool : t -> bool option
val get_list : t -> t list option
