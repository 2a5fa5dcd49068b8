(* Solver counters read by the benchmark's layer probe. Every schedule is
   one cold {!Netopt.solve} with no state to count, so they stay zero. *)

type stats = { is_resolves : int; is_warm_hits : int; is_bf_rounds : int }

let zero_stats = { is_resolves = 0; is_warm_hits = 0; is_bf_rounds = 0 }
