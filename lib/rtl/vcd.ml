(* Value-change-dump (VCD) tracing for the RTL simulators.

   Records every named signal of a simulated module cycle by cycle and
   renders a standard VCD file that waveform viewers (GTKWave, Surfer)
   understand. Used by debugging sessions around the co-simulation
   harness and by the cross-engine tests.

   Sampling goes through {!Engine.signal_opt} — the engines' common
   signal-observation API — so the dump is engine-agnostic and the
   cross-engine tests can assert byte-identical traces. *)

type signal = { sg_name : string; sg_width : int; sg_id : string }

type t = {
  mutable signals : signal list;  (* reversed *)
  mutable changes : (int * string * Bitvec.t) list;  (* time, id, value; reversed *)
  mutable last : (string, Bitvec.t) Hashtbl.t;
  mutable time : int;
  module_name : string;
}

(* VCD identifier characters: printable ASCII 33..126 *)
let ident_of_index i =
  let base = 94 and lo = 33 in
  let rec go i acc =
    let acc = String.make 1 (Char.chr (lo + (i mod base))) ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create ~module_name =
  { signals = []; changes = []; last = Hashtbl.create 64; time = 0; module_name }

(* Watch every port and internal node of [m]. *)
let watch_module t (m : Netlist.t) =
  let add name width =
    let id = ident_of_index (List.length t.signals) in
    t.signals <- { sg_name = name; sg_width = width; sg_id = id } :: t.signals
  in
  List.iter (fun (p : Netlist.port) -> add p.port_signal p.port_width) m.inputs;
  List.iter
    (fun n -> add (Netlist.node_out n) (Netlist.node_width n))
    m.nodes

(* Record the current value of every watched signal of [eng]. Call once per
   cycle after [Engine.eval]. *)
let sample t (eng : Engine.t) =
  List.iter
    (fun s ->
      match Engine.signal_opt eng s.sg_name with
      | None -> ()
      | Some v ->
          let changed =
            match Hashtbl.find_opt t.last s.sg_name with
            | Some prev -> not (Bitvec.equal_value prev v)
            | None -> true
          in
          if changed then begin
            Hashtbl.replace t.last s.sg_name v;
            t.changes <- (t.time, s.sg_id, v) :: t.changes
          end)
    (List.rev t.signals);
  t.time <- t.time + 1

let bin_of v =
  let s = Bitvec.to_bin_string v in
  String.sub s 2 (String.length s - 2)

(* Render the accumulated trace as VCD text. *)
let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date reproduction run $end\n";
  Buffer.add_string buf "$version longnail rtl simulator $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n" t.module_name);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" s.sg_width s.sg_id s.sg_name))
    (List.rev t.signals);
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let by_time = Hashtbl.create 64 in
  List.iter
    (fun (time, id, v) ->
      Hashtbl.replace by_time time ((id, v) :: Option.value ~default:[] (Hashtbl.find_opt by_time time)))
    t.changes;
  for time = 0 to t.time - 1 do
    match Hashtbl.find_opt by_time time with
    | None -> ()
    | Some changes ->
        Buffer.add_string buf (Printf.sprintf "#%d\n" time);
        List.iter
          (fun (id, v) ->
            if Bitvec.width v = 1 then
              Buffer.add_string buf (Printf.sprintf "%s%s\n" (bin_of v) id)
            else Buffer.add_string buf (Printf.sprintf "b%s %s\n" (bin_of v) id))
          changes
  done;
  Buffer.contents buf

(* Convenience: simulate [cycles] cycles of [eng]'s module with inputs
   supplied per cycle by [drive], tracing everything. *)
let trace (eng : Engine.t) ~cycles ~(drive : int -> (string * Bitvec.t) list) =
  let m = Engine.netlist eng in
  let t = create ~module_name:m.mod_name in
  watch_module t m;
  for cycle = 0 to cycles - 1 do
    List.iter (fun (n, v) -> Engine.set_input eng n v) (drive cycle);
    Engine.eval eng;
    sample t eng;
    Engine.clock eng
  done;
  render t

(* Trace equality across engines: VCD output is deterministic, so
   bit-identical behavior means byte-identical dumps. *)
let traces_equal (a : string) (b : string) = String.equal a b

(* First differing line of two traces, as (line number, left, right);
   None when equal. Used to report cross-engine divergences readably. *)
let first_divergence (a : string) (b : string) =
  if String.equal a b then None
  else
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec go i la lb =
      match (la, lb) with
      | [], [] -> None
      | x :: _, [] -> Some (i, x, "<end of trace>")
      | [], y :: _ -> Some (i, "<end of trace>", y)
      | x :: la', y :: lb' ->
          if String.equal x y then go (i + 1) la' lb' else Some (i, x, y)
    in
    go 1 la lb
