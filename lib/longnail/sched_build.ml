(* Construction of the LongnailProblem (Section 4.2) from a lil graph and a
   SCAIE-V virtual datasheet.

   - every lil/comb operation becomes a scheduling operation;
   - SSA def-use edges become dependences;
   - SCAIE-V sub-interface operations get operator types whose
     earliest/latest windows come from the datasheet; WrRD/RdMem/WrMem get
     latest = infinity so that the tightly-coupled/decoupled variants are
     reachable (Section 4.2);
   - for always-blocks, every interface constraint is stage 0 and solving
     merely checks single-cycle feasibility (Section 4.4). *)

open Ir.Mir

exception Build_error of Diag.t

let build_error ?(code = "E0901") ?span fmt =
  Format.kasprintf (fun m -> raise (Build_error (Diag.make ?span ~code m))) fmt

type built = {
  problem : Sched.Problem.t;
  index_of_op : (int, int) Hashtbl.t;  (* mir op id -> problem operation index *)
  ops_by_index : op array;  (* problem operation index -> mir op *)
}

let result_width (op : op) =
  match op.results with r :: _ -> r.vty.Bitvec.width | [] -> 0

(* the operator type for one lil/comb op on a given core *)
let operator_type_for (core : Scaiev.Datasheet.t) (dm : Delay_model.t) ~always (op : op) :
    Sched.Problem.operator_type =
  match Scaiev.Iface.of_lil_op op.opname with
  | Some iface ->
      let window () =
        match Scaiev.Datasheet.find core iface with
        | Some w -> w
        | None ->
            build_error ~code:"E0402" ?span:op.oloc "core %s lacks interface %s"
              core.core_name iface
      in
      if always then
        (* always mode: continuous evaluation anchored at stage 0; a
           memory read still answers only after its datasheet latency *)
        let latency = if iface = "RdMem" then (window ()).latency else 0 in
        Sched.Problem.operator_type iface ~earliest:0 ~latest:0 ~latency
          ~outgoing_delay:((dm.Delay_model.op_delay) op.opname (result_width op))
      else begin
        let w = window () in
        let latest =
          if List.mem iface Scaiev.Iface.relaxable then None (* relaxed to infinity *)
          else w.native_latest
        in
        Sched.Problem.operator_type iface ~earliest:w.earliest ?latest ~latency:w.latency
          ~outgoing_delay:((dm.Delay_model.op_delay) op.opname (result_width op))
      end
  | None ->
      (* plain logic: free placement *)
      Sched.Problem.operator_type op.opname ~latency:0
        ~outgoing_delay:((dm.Delay_model.op_delay) op.opname (result_width op))

let build (core : Scaiev.Datasheet.t) ?(delay_model = Delay_model.default) ?cycle_time
    (g : graph) : built =
  let always = g.gkind = `Always in
  let cycle_time =
    match cycle_time with Some ct -> ct | None -> Scaiev.Datasheet.cycle_time_ns core
  in
  let b = Sched.Problem.builder () in
  let index_of_op = Hashtbl.create 64 in
  let producer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* value id -> problem op index *)
  let ops = all_ops g in
  List.iteri
    (fun _ (op : op) ->
      match op.opname with
      | "lil.sink" -> ()
      | _ ->
          let lot = operator_type_for core delay_model ~always op in
          let idx = Sched.Problem.add_operation b ~label:(Printf.sprintf "%s#%d" op.opname op.oid) lot in
          Hashtbl.replace index_of_op op.oid idx;
          List.iter (fun r -> Hashtbl.replace producer r.vid idx) op.results)
    ops;
  List.iter
    (fun (op : op) ->
      match Hashtbl.find_opt index_of_op op.oid with
      | None -> ()
      | Some dst ->
          List.iter
            (fun v ->
              match Hashtbl.find_opt producer v.vid with
              | Some src -> Sched.Problem.add_dependence b ~src ~dst
              | None -> ())
            op.operands)
    ops;
  let problem = Sched.Problem.finish ~cycle_time b in
  let ops_by_index =
    Array.of_list (List.filter (fun (o : op) -> Hashtbl.mem index_of_op o.oid) ops)
  in
  { problem; index_of_op; ops_by_index }

(* schedule with the ILP (default) or ASAP scheduler *)
type scheduler = Ilp | Asap

(* [rounds] accumulates the ILP solve's Bellman-Ford sweeps. *)
let schedule ?(scheduler = Ilp) ?rounds (bt : built) =
  match scheduler with
  | Ilp -> (
      match Sched.Ilp_scheduler.schedule ?rounds bt.problem with
      | Sched.Ilp_scheduler.Scheduled -> true
      | Sched.Ilp_scheduler.Infeasible -> false)
  | Asap -> (
      match Sched.Asap_scheduler.schedule bt.problem with
      | Sched.Asap_scheduler.Scheduled -> true
      | Sched.Asap_scheduler.Infeasible -> false)

(* Explain an infeasible problem: compute each operation's ASAP lower
   bound (the least element of the scheduling difference system with its
   [latest] windows dropped) and return the op whose lower bound
   overshoots its own [latest] window the most, with (lower_bound,
   latest). The returned mir op carries the CoreDSL span the violation
   originates from, so flow errors can cite the offending source line. *)
let infeasible_culprit (bt : built) : (op * int * int) option =
  let ops = bt.problem.Sched.Problem.operations in
  let s = Sched.Problem.difference_system bt.problem in
  match Lp.Netopt.asap { s with upper = Array.map (fun _ -> None) s.upper } with
  | None -> None
  | Some lb ->
      let best = ref None in
      Array.iteri
        (fun i (o : Sched.Problem.operation) ->
          match o.lot.latest with
          | Some l when lb.(i) > l -> (
              match !best with
              | Some (_, lb0, l0) when lb0 - l0 >= lb.(i) - l -> ()
              | _ -> best := Some (bt.ops_by_index.(i), lb.(i), l))
          | _ -> ())
        ops;
      !best

(* start time of a mir op after scheduling *)
let start_time bt (op : op) =
  match Hashtbl.find_opt bt.index_of_op op.oid with
  | Some idx -> bt.problem.Sched.Problem.start_time.(idx)
  | None -> build_error ?span:op.oloc "op %d not in problem" op.oid
