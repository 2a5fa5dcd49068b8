(* Compiled RTL simulation engine (the Hardcaml approach): topologically
   sort the netlist once, allocate a flat mutable signal arena, and
   compile every node into a straight-line update closure executed per
   phase. Signals of at most [Sys.int_size - 1] bits are specialized to
   unboxed native-int arithmetic; anything wider (or any node touching a
   wide signal) falls back to the {!Ir.Comb_eval} reference semantics on
   {!Bitvec} values, so narrow and wide paths are bit-identical to the
   interpreter in {!Sim} by construction of the narrow ops and by shared
   code for the rest. *)

open Netlist

let u w = Bitvec.unsigned_ty w

(* A signal is "narrow" when its unsigned pattern fits a native int with
   the headroom the wrap-and-mask identities below need. On a 64-bit
   machine this is 62 bits. *)
let narrow_limit = Sys.int_size - 1
let is_narrow w = w <= narrow_limit

(* [mask w] = 2^w - 1, valid for w <= narrow_limit: at w = int_size - 1
   the [1 lsl w] overflows to min_int and the subtraction wraps to
   max_int, which is exactly the wanted mask. *)
let mask w = (1 lsl w) - 1

(* Sign-extend the low [w] bits of [x] to a native int. *)
let sx w x = (x lsl (Sys.int_size - w)) asr (Sys.int_size - w)

type slot = { idx : int; s_width : int; s_wide : bool }

type t = {
  m : Netlist.t;
  slots : (string, slot) Hashtbl.t;
  ints : int array;  (* narrow signals: unsigned patterns *)
  wides : Bitvec.t array;  (* wide signals: raw Bitvec values, as Sim stores them *)
  steps : (unit -> unit) array;  (* combinational update program, topo order *)
  commit_regs : unit -> unit;  (* two-phase register update *)
  init_ints : int array;  (* the arena as [create] left it, for [reset] *)
  init_wides : Bitvec.t array;
}

let netlist t = t.m

let create (m : Netlist.t) : t =
  validate m;
  (* arena layout: one slot per defined signal *)
  let slots = Hashtbl.create 64 in
  let n_ints = ref 0 and n_wides = ref 0 in
  let alloc name w =
    if not (Hashtbl.mem slots name) then
      if is_narrow w then (
        Hashtbl.replace slots name { idx = !n_ints; s_width = w; s_wide = false };
        incr n_ints)
      else (
        Hashtbl.replace slots name { idx = !n_wides; s_width = w; s_wide = true };
        incr n_wides)
  in
  List.iter (fun p -> alloc p.port_signal p.port_width) m.inputs;
  List.iter (fun n -> alloc (node_out n) (node_width n)) m.nodes;
  let ints = Array.make (max 1 !n_ints) 0 in
  let wides = Array.make (max 1 !n_wides) (Bitvec.zero (u 1)) in
  Hashtbl.iter
    (fun _ s -> if s.s_wide then wides.(s.idx) <- Bitvec.zero (u s.s_width))
    slots;
  let slot name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None -> nl_error "signal %s has no slot" name
  in
  let read_bv (s : slot) () =
    if s.s_wide then wides.(s.idx) else Bitvec.of_int (u s.s_width) ints.(s.idx)
  in
  let write_bv (s : slot) v =
    if s.s_wide then wides.(s.idx) <- v
    else ints.(s.idx) <- Bitvec.to_int (Bitvec.cast (u s.s_width) v)
  in
  (* fallback: any node touching a wide signal replays the reference
     semantics in Ir.Comb_eval on Bitvec operands *)
  let generic_comb op attrs width (o : slot) (ins : slot list) =
    let readers = List.map read_bv ins in
    fun () ->
      let ops = List.map (fun r -> r ()) readers in
      write_bv o (Ir.Comb_eval.eval ~name:op ~attrs ~ops ~result_width:width)
  in
  (* narrow specialization: out and every input fit native ints; each op
     mirrors Ir.Comb_eval.eval exactly (wrap = land mask, signed views
     via sx at the operand's own width) *)
  let narrow_comb op attrs width (o : slot) (ins : slot list) =
    let w = width in
    let m = mask w in
    let io = o.idx in
    let i n = (List.nth ins n).idx in
    let wi n = (List.nth ins n).s_width in
    match op with
    | "comb.add" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- (ints.(a) + ints.(b)) land m
    | "comb.sub" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- (ints.(a) - ints.(b)) land m
    | "comb.mul" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- (ints.(a) * ints.(b)) land m
    | "comb.divu" ->
        let a = i 0 and b = i 1 in
        fun () ->
          let bv = ints.(b) in
          ints.(io) <- (if bv = 0 then m else ints.(a) / bv land m)
    | "comb.modu" ->
        let a = i 0 and b = i 1 in
        fun () ->
          let bv = ints.(b) in
          ints.(io) <- (if bv = 0 then ints.(a) land m else ints.(a) mod bv land m)
    | "comb.divs" ->
        let a = i 0 and b = i 1 and wa = wi 0 and wb = wi 1 in
        fun () ->
          let bv = ints.(b) in
          ints.(io) <- (if bv = 0 then m else sx wa ints.(a) / sx wb bv land m)
    | "comb.mods" ->
        let a = i 0 and b = i 1 and wa = wi 0 and wb = wi 1 in
        fun () ->
          let bv = ints.(b) in
          ints.(io) <- (if bv = 0 then ints.(a) land m else sx wa ints.(a) mod sx wb bv land m)
    | "comb.and" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- ints.(a) land ints.(b) land m
    | "comb.or" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- (ints.(a) lor ints.(b)) land m
    | "comb.xor" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- (ints.(a) lxor ints.(b)) land m
    | "comb.mux" ->
        let c = i 0 and t1 = i 1 and e2 = i 2 in
        fun () -> ints.(io) <- (if ints.(c) <> 0 then ints.(t1) else ints.(e2)) land m
    | "comb.extract" -> (
        match List.assoc_opt "lowBit" attrs with
        | Some (Ir.Mir.A_int lo) ->
            let a = i 0 in
            fun () -> ints.(io) <- (ints.(a) lsr lo) land m
        | _ -> invalid_arg "comb.extract without lowBit")
    | "comb.concat" ->
        (* first operand is the most significant; the result is the
           un-wrapped sum-width value, exactly like Bitvec.concat *)
        let parts = List.map (fun (s : slot) -> (s.idx, s.s_width)) ins in
        fun () ->
          ints.(io) <-
            List.fold_left (fun acc (ix, wx) -> (acc lsl wx) lor ints.(ix)) 0 parts
    | "comb.replicate" ->
        let a = i 0 and wa = wi 0 in
        let n = w / wi 0 in
        fun () ->
          let v = ints.(a) in
          let r = ref 0 in
          for _ = 1 to n do
            r := (!r lsl wa) lor v
          done;
          ints.(io) <- !r
    | "comb.shl" ->
        let a = i 0 and b = i 1 in
        fun () ->
          let k = ints.(b) in
          ints.(io) <- (if k >= w then 0 else ints.(a) lsl k land m)
    | "comb.shru" ->
        let a = i 0 and b = i 1 in
        fun () ->
          let k = ints.(b) in
          ints.(io) <- (if k >= w then 0 else ints.(a) lsr k land m)
    | "comb.shrs" ->
        let a = i 0 and b = i 1 and wa = wi 0 in
        fun () ->
          let k = min ints.(b) (w - 1) in
          ints.(io) <- sx wa ints.(a) asr k land m
    | "comb.icmp_eq" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- Bool.to_int (ints.(a) = ints.(b))
    | "comb.icmp_ne" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- Bool.to_int (ints.(a) <> ints.(b))
    | "comb.icmp_ult" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- Bool.to_int (ints.(a) < ints.(b))
    | "comb.icmp_ule" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- Bool.to_int (ints.(a) <= ints.(b))
    | "comb.icmp_ugt" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- Bool.to_int (ints.(a) > ints.(b))
    | "comb.icmp_uge" ->
        let a = i 0 and b = i 1 in
        fun () -> ints.(io) <- Bool.to_int (ints.(a) >= ints.(b))
    | "comb.icmp_slt" ->
        let a = i 0 and b = i 1 and wa = wi 0 and wb = wi 1 in
        fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) < sx wb ints.(b))
    | "comb.icmp_sle" ->
        let a = i 0 and b = i 1 and wa = wi 0 and wb = wi 1 in
        fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) <= sx wb ints.(b))
    | "comb.icmp_sgt" ->
        let a = i 0 and b = i 1 and wa = wi 0 and wb = wi 1 in
        fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) > sx wb ints.(b))
    | "comb.icmp_sge" ->
        let a = i 0 and b = i 1 and wa = wi 0 and wb = wi 1 in
        fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) >= sx wb ints.(b))
    | _ ->
        (* unknown op: defer to the reference evaluator so the error
           behavior matches the interpreter *)
        generic_comb op attrs width o ins
  in
  let compile_node (n : node) : (unit -> unit) option =
    match n with
    | Reg _ -> None
    | Comb { op = "hw.constant"; out; width; attrs; _ } -> (
        (* constants are written into the arena once, at compile time *)
        match List.assoc_opt "value" attrs with
        | Some (Ir.Mir.A_bv v) ->
            write_bv (slot out) (Bitvec.cast (u width) v);
            None
        | _ -> invalid_arg "hw.constant without value")
    | Comb c ->
        let o = slot c.out in
        let ins = List.map slot c.inputs in
        if (not o.s_wide) && List.for_all (fun (s : slot) -> not s.s_wide) ins then
          Some (narrow_comb c.op c.attrs c.width o ins)
        else Some (generic_comb c.op c.attrs c.width o ins)
    | Rom r ->
        let o = slot r.out and ix = slot r.index in
        let len = Array.length r.table in
        if (not o.s_wide) && not ix.s_wide then (
          let tbl =
            Array.map (fun v -> Bitvec.to_int (Bitvec.cast (u r.width) v)) r.table
          in
          let io = o.idx and ii = ix.idx in
          Some
            (fun () ->
              let i = ints.(ii) in
              ints.(io) <- (if i < len then tbl.(i) else 0)))
        else
          let read_ix = read_bv ix in
          Some
            (fun () ->
              let i = Bitvec.to_int (read_ix ()) in
              let v =
                if i >= 0 && i < len then r.table.(i) else Bitvec.zero (u r.width)
              in
              write_bv o (Bitvec.cast (u r.width) v))
  in
  (* registers: reset state now; sample-then-commit closures for clock *)
  let regs = registers m in
  List.iter
    (fun (r : reg_node) ->
      write_bv (slot r.out)
        (match r.init with
        | Some v -> Bitvec.cast (u r.width) v
        | None -> Bitvec.zero (u r.width)))
    regs;
  let nregs = List.length regs in
  let staged_i = Array.make (max 1 nregs) 0 in
  let staged_w = Array.make (max 1 nregs) (Bitvec.zero (u 1)) in
  let enabled = Array.make (max 1 nregs) false in
  let reg_progs =
    List.mapi
      (fun k (r : reg_node) ->
        let o = slot r.out in
        let nx = slot r.next in
        let en_check =
          match r.enable with
          | None -> fun () -> true
          | Some e ->
              let s = slot e in
              if s.s_wide then fun () -> Bitvec.to_bool wides.(s.idx)
              else fun () -> ints.(s.idx) <> 0
        in
        let sample =
          if (not o.s_wide) && not nx.s_wide then (
            let m = mask r.width and inx = nx.idx in
            fun () ->
              enabled.(k) <- en_check ();
              if enabled.(k) then staged_i.(k) <- ints.(inx) land m)
          else
            let read_nx = read_bv nx in
            let w = r.width in
            fun () ->
              enabled.(k) <- en_check ();
              if enabled.(k) then staged_w.(k) <- Bitvec.cast (u w) (read_nx ())
        in
        let commit =
          if (not o.s_wide) && not nx.s_wide then (fun () ->
            if enabled.(k) then ints.(o.idx) <- staged_i.(k))
          else fun () -> if enabled.(k) then write_bv o staged_w.(k)
        in
        (sample, commit))
      regs
  in
  let samples = Array.of_list (List.map fst reg_progs) in
  let commits = Array.of_list (List.map snd reg_progs) in
  let commit_regs () =
    Array.iter (fun f -> f ()) samples;
    Array.iter (fun f -> f ()) commits
  in
  let steps =
    topo_nodes m |> List.filter_map compile_node |> Array.of_list
  in
  (* compiling wrote the constants; registers hold their init values and
     inputs are zero: this is the state [reset] returns to *)
  { m; slots; ints; wides; steps; commit_regs; init_ints = Array.copy ints;
    init_wides = Array.copy wides }

(* Bitvec values are immutable, so blitting the snapshot back restores
   every signal, constants and register inits included. *)
let reset t =
  Array.blit t.init_ints 0 t.ints 0 (Array.length t.ints);
  Array.blit t.init_wides 0 t.wides 0 (Array.length t.wides)

let set_input t name v =
  match List.find_opt (fun p -> p.port_name = name) t.m.inputs with
  | Some p ->
      let s = Hashtbl.find t.slots p.port_signal in
      let v = Bitvec.cast (u p.port_width) v in
      if s.s_wide then t.wides.(s.idx) <- v else t.ints.(s.idx) <- Bitvec.to_int v
  | None -> nl_error "no input port %s" name

let signal_opt t name =
  match Hashtbl.find_opt t.slots name with
  | Some s ->
      Some (if s.s_wide then t.wides.(s.idx) else Bitvec.of_int (u s.s_width) t.ints.(s.idx))
  | None -> None

let signal t name =
  match signal_opt t name with
  | Some v -> v
  | None -> nl_error "signal %s has no value" name

(* settle combinational logic: run the straight-line update program *)
let eval t =
  let steps = t.steps in
  for i = 0 to Array.length steps - 1 do
    steps.(i) ()
  done

(* advance registers (two-phase: sample all, then update) *)
let clock t = t.commit_regs ()

let output t name =
  match List.find_opt (fun p -> p.port_name = name) t.m.outputs with
  | Some p -> Bitvec.cast (u p.port_width) (signal t p.port_signal)
  | None -> nl_error "no output port %s" name

let cycle t inputs =
  List.iter (fun (n, v) -> set_input t n v) inputs;
  eval t;
  clock t
