(* Cycle-accurate two-phase interpreter for RTL netlists: the test
   oracle for the compiled engine ({!Rtl.Compiled}), which production
   runs (the paper verifies extended cores by RTL simulation of
   assembler programs, Section 5.3).

   Usage per clock cycle:
   - [set_input] for each input port,
   - [eval] to settle combinational logic,
   - read outputs with [output],
   - [clock] to advance the registers. *)

open Rtl.Netlist

type t = {
  m : Rtl.Netlist.t;
  values : (string, Bitvec.t) Hashtbl.t;
  order : node list;  (* combinational nodes in dependency order *)
}

let u w = Bitvec.unsigned_ty w

(* inputs and registers start at zero / their reset value; every other
   signal has no value until the first [eval] *)
let init m values =
  List.iter (fun p -> Hashtbl.replace values p.port_signal (Bitvec.zero (u p.port_width))) m.inputs;
  List.iter
    (fun (r : reg_node) ->
      Hashtbl.replace values r.out
        (match r.init with Some v -> Bitvec.cast (u r.width) v | None -> Bitvec.zero (u r.width)))
    (registers m)

let create (m : Rtl.Netlist.t) =
  validate m;
  let values = Hashtbl.create 64 in
  init m values;
  { m; values; order = topo_nodes m }

let reset t =
  Hashtbl.reset t.values;
  init t.m t.values

let set_input t name v =
  match List.find_opt (fun p -> p.port_name = name) t.m.inputs with
  | Some p -> Hashtbl.replace t.values p.port_signal (Bitvec.cast (u p.port_width) v)
  | None -> nl_error "no input port %s" name

let signal t name =
  match Hashtbl.find_opt t.values name with
  | Some v -> v
  | None -> nl_error "signal %s has no value" name

(* settle combinational logic *)
let eval t =
  List.iter
    (fun n ->
      match n with
      | Comb c ->
          let ops = List.map (signal t) c.inputs in
          Hashtbl.replace t.values c.out
            (Ir.Comb_eval.eval ~name:c.op ~attrs:c.attrs ~ops ~result_width:c.width)
      | Rom r ->
          let idx = Bitvec.to_int (signal t r.index) in
          let v =
            if idx >= 0 && idx < Array.length r.table then r.table.(idx)
            else Bitvec.zero (u r.width)
          in
          Hashtbl.replace t.values r.out (Bitvec.cast (u r.width) v)
      | Reg _ -> ())
    t.order

(* advance registers (two-phase: sample all, then update) *)
let clock t =
  let sampled =
    List.filter_map
      (fun (r : reg_node) ->
        let en = match r.enable with None -> true | Some e -> Bitvec.to_bool (signal t e) in
        if en then Some (r.out, Bitvec.cast (u r.width) (signal t r.next)) else None)
      (registers t.m)
  in
  List.iter (fun (out, v) -> Hashtbl.replace t.values out v) sampled

let output t name =
  match List.find_opt (fun p -> p.port_name = name) t.m.outputs with
  | Some p -> Bitvec.cast (u p.port_width) (signal t p.port_signal)
  | None -> nl_error "no output port %s" name

(* convenience: run a full cycle with the given inputs *)
let cycle t inputs =
  List.iter (fun (n, v) -> set_input t n v) inputs;
  eval t;
  clock t

(* the width of a port the engine record binds to native ints *)
let int_port_width ports name =
  match List.find_opt (fun p -> p.port_name = name) ports with
  | Some p when p.port_width > Bitvec.native_width ->
      invalid_arg (Printf.sprintf "Rtl_sim: port %s is wider than %d bits" name Bitvec.native_width)
  | Some p -> p.port_width
  | None -> nl_error "no port %s" name

(* The interpreter behind the engine record, for cross-engine tests: the
   native-int port accessors go through its Bitvec ports. *)
let engine m : Rtl.Engine.t =
  let t = create m in
  {
    netlist = m;
    reset = (fun () -> reset t);
    set_input = set_input t;
    signal_opt = Hashtbl.find_opt t.values;
    eval = (fun () -> eval t);
    clock = (fun () -> clock t);
    output = output t;
    int_input =
      (fun name ->
        let w = int_port_width t.m.inputs name in
        fun v -> set_input t name (Bitvec.of_int (u w) v));
    int_output =
      (fun name ->
        ignore (int_port_width t.m.outputs name);
        fun () -> Bitvec.to_int (output t name));
  }
