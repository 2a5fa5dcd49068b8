(** Graphviz (DOT) export of IR graphs and scheduled problems.

   Renders a lil CDFG in the style of Figure 6 of the paper: one node per
   operation labelled with its name (and schedule time when available),
   one edge per SSA dependence. Used by the CLI's --dot option. *)

val escape : string -> string
val of_graph : ?time_of:(int -> int option) -> Mir.graph -> string
