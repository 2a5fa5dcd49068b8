(** Solver counters read by the benchmark's layer probe. Every schedule
    is one cold {!Netopt.solve}, so only {!zero_stats} exists. *)

type stats = { is_resolves : int; is_warm_hits : int; is_bf_rounds : int }

val zero_stats : stats
