(* The common simulation-engine interface: a record of the engine
   operations, so every RTL-in-the-loop consumer (cosimulation, the core
   grids, VCD tracing) runs whichever engine it is handed. [create]
   builds the compiled engine, the only one in lib/; tests build the
   interpreting oracle as the same record and cross-check the two. *)

type t = {
  netlist : Netlist.t;
  reset : unit -> unit;
  set_input : string -> Bitvec.t -> unit;
  signal_opt : string -> Bitvec.t option;
  eval : unit -> unit;
  clock : unit -> unit;
  output : string -> Bitvec.t;
  int_input : string -> int -> unit;
  int_output : string -> unit -> int;
}

let create m =
  let c = Compiled.create m in
  {
    netlist = m;
    reset = (fun () -> Compiled.reset c);
    set_input = (fun name v -> Compiled.set_input c name v);
    signal_opt = (fun name -> Compiled.signal_opt c name);
    eval = (fun () -> Compiled.eval c);
    clock = (fun () -> Compiled.clock c);
    output = (fun name -> Compiled.output c name);
    int_input = Compiled.int_input c;
    int_output = Compiled.int_output c;
  }

let reset t = t.reset ()
let netlist t = t.netlist
let set_input t name v = t.set_input name v
let signal_opt t name = t.signal_opt name
let eval t = t.eval ()
let clock t = t.clock ()
let output t name = t.output name
let int_input t name = t.int_input name
let int_output t name = t.int_output name

let cycle t inputs =
  List.iter (fun (n, v) -> t.set_input n v) inputs;
  t.eval ();
  t.clock ()
