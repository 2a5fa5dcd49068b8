(* The common simulation-engine interface: the reference interpreter
   ({!Sim}) and the compiled engine ({!Compiled}) behind one type, so
   every RTL-in-the-loop consumer (cosimulation, fuzzing, the core grids,
   VCD tracing) is engine-agnostic and tests can cross-check engines. *)

type kind = Interp | Compiled

type t = I of Sim.t | C of Compiled.t

(* The compiled engine is the default everywhere; the interpreter is the
   reference implementation, reached only by cross-engine tests. *)
let create ?(kind = Compiled) m =
  match kind with Interp -> I (Sim.create m) | Compiled -> C (Compiled.create m)

let reset = function I s -> Sim.reset s | C c -> Compiled.reset c

let kind = function I _ -> Interp | C _ -> Compiled
let netlist = function I s -> s.Sim.m | C c -> Compiled.netlist c

let set_input t name v =
  match t with I s -> Sim.set_input s name v | C c -> Compiled.set_input c name v

let signal t name =
  match t with I s -> Sim.signal s name | C c -> Compiled.signal c name

(* Signal observation for tracing: [None] when the engine has no value
   for the name (interpreter before first [eval], or unknown signal). *)
let signal_opt t name =
  match t with
  | I s -> Hashtbl.find_opt s.Sim.values name
  | C c -> Compiled.signal_opt c name

let eval = function I s -> Sim.eval s | C c -> Compiled.eval c
let clock = function I s -> Sim.clock s | C c -> Compiled.clock c

let output t name =
  match t with I s -> Sim.output s name | C c -> Compiled.output c name

let cycle t inputs =
  match t with I s -> Sim.cycle s inputs | C c -> Compiled.cycle c inputs
