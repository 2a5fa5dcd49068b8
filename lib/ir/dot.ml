(* Graphviz (DOT) export of IR graphs and scheduled problems.

   Renders a lil CDFG in the style of Figure 6 of the paper: one node per
   operation labelled with its name (and schedule time when available),
   one edge per SSA dependence. Used by the CLI's --dot option. *)

open Mir

let escape s = String.concat "\\\"" (String.split_on_char '"' s)

(* [time_of] optionally supplies a scheduled start time per op id. *)
let of_graph ?(time_of : (int -> int option) option) (g : graph) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape g.gname));
  Buffer.add_string buf "  rankdir=TB;\n  node [fontname=\"monospace\"];\n";
  let producer = Hashtbl.create 64 in
  let ops = all_ops g in
  List.iter
    (fun (op : op) -> List.iter (fun r -> Hashtbl.replace producer r.vid op.oid) op.results)
    ops;
  (* group nodes by scheduled time step when a schedule is available *)
  let clusters : (int, op list) Hashtbl.t = Hashtbl.create 8 in
  let unscheduled = ref [] in
  List.iter
    (fun (op : op) ->
      match Option.bind time_of (fun f -> f op.oid) with
      | Some t -> Hashtbl.replace clusters t (op :: Option.value ~default:[] (Hashtbl.find_opt clusters t))
      | None -> unscheduled := op :: !unscheduled)
    ops;
  let emit_node (op : op) =
    let is_iface = String.length op.opname > 4 && String.sub op.opname 0 4 = "lil." in
    let shape, fill =
      if is_iface then ("box", "lightblue")
      else match op.opname with
        | "hw.constant" -> ("ellipse", "white")
        | _ -> ("box", "lightgrey")
    in
    let label =
      match (op.opname, attr_bv op "value") with
      | "hw.constant", Some v -> Printf.sprintf "%s" (Bitvec.to_string v)
      | _ -> op.opname
    in
    Buffer.add_string buf
      (Printf.sprintf "    n%d [label=\"%s\" shape=%s style=filled fillcolor=%s];\n" op.oid
         (escape label) shape fill)
  in
  let times = Hashtbl.fold (fun t _ acc -> t :: acc) clusters [] |> List.sort compare in
  List.iter
    (fun t ->
      Buffer.add_string buf (Printf.sprintf "  subgraph cluster_t%d {\n    label=\"t = %d\";\n" t t);
      List.iter emit_node (Hashtbl.find clusters t);
      Buffer.add_string buf "  }\n")
    times;
  List.iter emit_node !unscheduled;
  List.iter
    (fun (op : op) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt producer v.vid with
          | Some src ->
              Buffer.add_string buf
                (Printf.sprintf "  n%d -> n%d [label=\"%%%d:%db\"];\n" src op.oid v.vid
                   v.vty.Bitvec.width)
          | None -> ())
        op.operands)
    ops;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
