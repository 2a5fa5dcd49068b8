(** Tree-walking evaluator for typed CoreDSL behaviors: the test oracle
    for the staged evaluator in {!Coredsl.Interp}, which every program
    engine runs. It walks the typed AST on every execution, keeps locals
    in a hash table keyed by name and computes every value on {!Bitvec},
    over the same {!Coredsl.Interp.state}. Its results, [pc_written]
    included, and its {!Coredsl.Interp.Runtime_error}s (location and
    message) are the ones the staged evaluator must reproduce. *)

val exec_instr :
  ?mem:Coredsl.Interp.mem_port ->
  Coredsl.Interp.state ->
  Coredsl.Tast.tinstr ->
  instr_word:Bitvec.t ->
  unit

val exec_always : Coredsl.Interp.state -> Coredsl.Tast.talways -> unit
