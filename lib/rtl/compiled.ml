(* Compiled RTL simulation engine (the Hardcaml approach): intern and
   topologically sort the netlist once ({!Netlist.sort}), lay every
   signal out in one flat int arena, and compile every node into a
   straight-line update closure executed per phase. A signal of w bits
   takes ceil(w / limb_bits) consecutive slots ("limbs", least
   significant first, each an unsigned pattern of at most [limb_bits]
   bits); signals of one limb run as single native-int operations, wider
   ones limb by limb. Every op mirrors Ir.Comb_eval on unsigned patterns
   exactly, so traces stay bit-identical to the interpreting oracle
   (Oracle.Rtl_sim, outside lib/). Only a division or remainder wider than
   a limb computes on boxed Bitvec values; no other step allocates. *)

open Netlist
module Bn = Bitvec.Bn

let u w = Bitvec.unsigned_ty w

(* The bits of one limb: a native int holds them with the headroom the
   wrap-and-mask identities and the carries below need (62 bits on a
   64-bit machine). Multiplication works on half limbs, whose products
   fit a limb. *)
let limb_bits = Sys.int_size - 1
let half_bits = limb_bits / 2

(* [mask w] = 2^w - 1, valid for w <= limb_bits: at w = int_size - 1
   the [1 lsl w] overflows to min_int and the subtraction wraps to
   max_int, which is exactly the wanted mask. *)
let mask w = (1 lsl w) - 1
let limb_mask = mask limb_bits
let half_mask = mask half_bits

(* Sign-extend the low [w] bits of [x] to a native int. *)
let sx w x = (x lsl (Sys.int_size - w)) asr (Sys.int_size - w)

let n_limbs w = (w + limb_bits - 1) / limb_bits

(* A signal's place in the arena: [n] limbs from [base]; the top limb
   holds the bits [top_mask] covers. *)
type slot = { base : int; width : int; n : int; top_mask : int }

let slot_at base width =
  let n = n_limbs width in
  { base; width; n; top_mask = mask (width - (limb_bits * (n - 1))) }

(* limb [j] of [s], zero-extended on both sides *)
let limb ints s j = if j >= 0 && j < s.n then ints.(s.base + j) else 0

(* limb [j] of [s] sign-extended from bit [s.width - 1] *)
let slimb ints s j =
  let top = ints.(s.base + s.n - 1) in
  let fill = if top land (s.top_mask lxor (s.top_mask lsr 1)) <> 0 then limb_mask else 0 in
  if j < s.n - 1 then ints.(s.base + j)
  else if j = s.n - 1 then top lor (fill land lnot s.top_mask)
  else fill

let is_nonzero ints s =
  let nz = ref false in
  for j = 0 to s.n - 1 do
    if ints.(s.base + j) <> 0 then nz := true
  done;
  !nz

(* the value of [s] when it fits the low limb, else [max_int]: shift
   amounts and ROM indices beyond any width *)
let small_value ints s =
  let big = ref false in
  for j = 1 to s.n - 1 do
    if ints.(s.base + j) <> 0 then big := true
  done;
  if !big then max_int else ints.(s.base)

(* limb [j] of [s], sign-extended when [signed] *)
let limb_ext ints signed s j = if signed then slimb ints s j else limb ints s j

(* compare [a] and [b] as unsigned or two's-complement numbers at their
   own widths: negative, zero or positive. Flipping the sign bit of the
   top limb turns the signed order into the unsigned one. *)
let compare_limbs ints ~signed a b =
  let top = max a.n b.n - 1 and flip = if signed then 1 lsl (limb_bits - 1) else 0 in
  let c =
    ref (compare (limb_ext ints signed a top lxor flip) (limb_ext ints signed b top lxor flip))
  in
  let j = ref (top - 1) in
  while !c = 0 && !j >= 0 do
    c := compare (limb_ext ints signed a !j) (limb_ext ints signed b !j);
    decr j
  done;
  !c

(* write limb [i] of a result into [o], masking the top limb *)
let set ints o i v = ints.(o.base + i) <- (if i = o.n - 1 then v land o.top_mask else v)

(* [o] := the bits [lo, lo + o.width) of [a], sign-extended when
   [signed]; [lo] may be negative (zeros shift in) *)
let extract_limbs ints ~signed a lo o =
  let q = if lo >= 0 then lo / limb_bits else -((limb_bits - 1 - lo) / limb_bits) in
  let r = lo - (q * limb_bits) in
  for i = 0 to o.n - 1 do
    let l = limb_ext ints signed a (q + i) in
    set ints o i
      (if r = 0 then l
       else ((l lsr r) lor (limb_ext ints signed a (q + i + 1) lsl (limb_bits - r))) land limb_mask)
  done

(* the unsigned pattern of [v] at width [w], as limbs *)
let limbs_of w v =
  if w <= limb_bits then [| Bitvec.to_int (Bitvec.cast (u w) v) |]
  else
    let p = Bitvec.pattern (Bitvec.cast (u w) v) in
    Array.init (n_limbs w) (fun j ->
        Bn.to_int_exn (Bn.mod_pow2 (Bn.shift_right p (j * limb_bits)) limb_bits))

(* the value of [s] as a [w]-bit Bitvec (wrapping, like a cast) *)
let read_bv ints s w =
  if s.n = 1 then Bitvec.of_int (u w) ints.(s.base)
  else begin
    let v = ref Bn.zero in
    for j = s.n - 1 downto 0 do
      v := Bn.add (Bn.shift_left !v limb_bits) (Bn.of_int ints.(s.base + j))
    done;
    Bitvec.of_bn (u w) !v
  end

let write_bv ints s v =
  if s.n = 1 then ints.(s.base) <- Bitvec.to_int (Bitvec.cast (u s.width) v)
  else Array.blit (limbs_of s.width v) 0 ints s.base s.n

type port = { p_slot : slot; p_width : int }

type t = {
  ints : int array;  (* the arena *)
  init : int array;  (* the arena as [create] left it, for [reset] *)
  steps : (unit -> unit) array;  (* combinational update program, topo order *)
  samples : (unit -> unit) array;  (* clock, phase 1: registers sample *)
  commits : (unit -> unit) array;  (* clock, phase 2: registers update *)
  ids : (string, int) Hashtbl.t;
  slots : slot array;  (* by signal id *)
  inputs : (string, port) Hashtbl.t;
  outputs : (string, port) Hashtbl.t;
}

(* single-limb ops: out and every input fit one native int; each op
   mirrors Ir.Comb_eval.eval exactly (wrap = land mask, signed views via
   sx at the operand's own width) *)
let narrow_comb ints op attrs (o : slot) (ins : slot array) =
  let w = o.width in
  let m = mask w and io = o.base in
  let a = ins.(0).base and wa = ins.(0).width in
  let b = ins.(Array.length ins - 1).base and wb = ins.(Array.length ins - 1).width in
  match op with
  | "comb.add" -> fun () -> ints.(io) <- (ints.(a) + ints.(b)) land m
  | "comb.sub" -> fun () -> ints.(io) <- (ints.(a) - ints.(b)) land m
  | "comb.mul" -> fun () -> ints.(io) <- (ints.(a) * ints.(b)) land m
  | "comb.divu" ->
      fun () ->
        let bv = ints.(b) in
        ints.(io) <- (if bv = 0 then m else ints.(a) / bv land m)
  | "comb.modu" ->
      fun () ->
        let bv = ints.(b) in
        ints.(io) <- (if bv = 0 then ints.(a) land m else ints.(a) mod bv land m)
  | "comb.divs" ->
      fun () ->
        let bv = ints.(b) in
        ints.(io) <- (if bv = 0 then m else sx wa ints.(a) / sx wb bv land m)
  | "comb.mods" ->
      fun () ->
        let bv = ints.(b) in
        ints.(io) <- (if bv = 0 then ints.(a) land m else sx wa ints.(a) mod sx wb bv land m)
  | "comb.and" -> fun () -> ints.(io) <- ints.(a) land ints.(b) land m
  | "comb.or" -> fun () -> ints.(io) <- (ints.(a) lor ints.(b)) land m
  | "comb.xor" -> fun () -> ints.(io) <- (ints.(a) lxor ints.(b)) land m
  | "comb.mux" ->
      let t1 = ins.(1).base in
      fun () -> ints.(io) <- (if ints.(a) <> 0 then ints.(t1) else ints.(b)) land m
  | "comb.extract" -> (
      match List.assoc_opt "lowBit" attrs with
      | Some (Ir.Mir.A_int lo) -> fun () -> ints.(io) <- (ints.(a) lsr lo) land m
      | _ -> invalid_arg "comb.extract without lowBit")
  | "comb.concat" when Array.length ins = 2 -> fun () -> ints.(io) <- (ints.(a) lsl wb) lor ints.(b)
  | "comb.concat" ->
      (* first operand is the most significant; the result is the
         un-wrapped sum-width value, exactly like Bitvec.concat *)
      let ix = Array.map (fun s -> s.base) ins and wx = Array.map (fun s -> s.width) ins in
      fun () ->
        let acc = ref 0 in
        for k = 0 to Array.length ix - 1 do
          acc := (!acc lsl wx.(k)) lor ints.(ix.(k))
        done;
        ints.(io) <- !acc
  | "comb.replicate" ->
      fun () ->
        let v = ints.(a) in
        let r = ref 0 in
        for _ = 1 to w / wa do
          r := (!r lsl wa) lor v
        done;
        ints.(io) <- !r
  | "comb.shl" ->
      fun () ->
        let k = ints.(b) in
        ints.(io) <- (if k >= w then 0 else ints.(a) lsl k land m)
  | "comb.shru" ->
      fun () ->
        let k = ints.(b) in
        ints.(io) <- (if k >= w then 0 else ints.(a) lsr k land m)
  | "comb.shrs" -> fun () -> ints.(io) <- sx wa ints.(a) asr min ints.(b) (w - 1) land m
  | "comb.icmp_eq" -> fun () -> ints.(io) <- Bool.to_int (ints.(a) = ints.(b))
  | "comb.icmp_ne" -> fun () -> ints.(io) <- Bool.to_int (ints.(a) <> ints.(b))
  | "comb.icmp_ult" -> fun () -> ints.(io) <- Bool.to_int (ints.(a) < ints.(b))
  | "comb.icmp_ule" -> fun () -> ints.(io) <- Bool.to_int (ints.(a) <= ints.(b))
  | "comb.icmp_ugt" -> fun () -> ints.(io) <- Bool.to_int (ints.(a) > ints.(b))
  | "comb.icmp_uge" -> fun () -> ints.(io) <- Bool.to_int (ints.(a) >= ints.(b))
  | "comb.icmp_slt" -> fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) < sx wb ints.(b))
  | "comb.icmp_sle" -> fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) <= sx wb ints.(b))
  | "comb.icmp_sgt" -> fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) > sx wb ints.(b))
  | "comb.icmp_sge" -> fun () -> ints.(io) <- Bool.to_int (sx wa ints.(a) >= sx wb ints.(b))
  | other -> invalid_arg (Printf.sprintf "Compiled: not a comb op: %s" other)

(* multi-limb ops: some signal is wider than a limb; operands are read
   zero-extended (or, for the signed views, sign-extended) limb by limb *)
let wide_comb ints op attrs (o : slot) (ins : slot array) =
  let a = ins.(0) and b = ins.(Array.length ins - 1) in
  let cmp signed p () = ints.(o.base) <- Bool.to_int (p (compare_limbs ints ~signed a b)) in
  let bitwise f () =
    for i = 0 to o.n - 1 do
      set ints o i (f (limb ints a i) (limb ints b i))
    done
  in
  (* shift [a] down by [k] (up, for a negative [k]) into [o] *)
  let shift ~signed k = extract_limbs ints ~signed a k o in
  let zero () = Array.fill ints o.base o.n 0 in
  match op with
  | "comb.add" | "comb.sub" ->
      let sign = if op = "comb.add" then 1 else -1 in
      fun () ->
        let c = ref 0 in
        for i = 0 to o.n - 1 do
          let s = limb ints a i + (sign * (limb ints b i + !c)) in
          set ints o i (s land limb_mask);
          c := (s lsr limb_bits) land 1
        done
  | "comb.mul" ->
      (* schoolbook on half limbs: every partial sum stays below 2^62 *)
      let nd = 2 * o.n in
      let da = Array.make nd 0 and db = Array.make nd 0 and dr = Array.make nd 0 in
      let digits s d =
        for k = 0 to nd - 1 do
          let l = limb ints s (k / 2) in
          d.(k) <- (if k land 1 = 0 then l land half_mask else l lsr half_bits)
        done
      in
      fun () ->
        digits a da;
        digits b db;
        Array.fill dr 0 nd 0;
        for i = 0 to nd - 1 do
          let c = ref 0 in
          for j = 0 to nd - 1 - i do
            let t = dr.(i + j) + (da.(i) * db.(j)) + !c in
            dr.(i + j) <- t land half_mask;
            c := t lsr half_bits
          done
        done;
        for i = 0 to o.n - 1 do
          set ints o i (dr.(2 * i) lor (dr.((2 * i) + 1) lsl half_bits))
        done
  | "comb.divu" | "comb.modu" | "comb.divs" | "comb.mods" ->
      (* the one boxed step: Comb_eval's definition on Bitvec values *)
      let div = op = "comb.divu" || op = "comb.divs" in
      let signed = op = "comb.divs" || op = "comb.mods" in
      let view s v = if signed then Bitvec.cast (Bitvec.signed_ty s.width) v else v in
      fun () ->
        let x = read_bv ints a a.width and y = read_bv ints b b.width in
        write_bv ints o
          (if Bitvec.is_zero y then if div then Bitvec.lognot (Bitvec.zero (u o.width)) else x
           else (if div then Bitvec.div else Bitvec.rem) (view a x) (view b y))
  | "comb.and" -> bitwise ( land )
  | "comb.or" -> bitwise ( lor )
  | "comb.xor" -> bitwise ( lxor )
  | "comb.mux" ->
      let t1 = ins.(1) and e2 = ins.(2) in
      fun () ->
        let src = if is_nonzero ints a then t1 else e2 in
        for i = 0 to o.n - 1 do
          set ints o i (limb ints src i)
        done
  | "comb.extract" -> (
      match List.assoc_opt "lowBit" attrs with
      | Some (Ir.Mir.A_int lo) -> fun () -> shift ~signed:false lo
      | _ -> invalid_arg "comb.extract without lowBit")
  | "comb.concat" | "comb.replicate" ->
      (* OR every part in at its offset; parts are masked at their own
         width, so they never overlap. The first operand is the most
         significant. *)
      let parts =
        if op = "comb.concat" then ins else Array.make (o.width / a.width) a
      in
      let offs = Array.make (Array.length parts) 0 in
      for k = Array.length parts - 2 downto 0 do
        offs.(k) <- offs.(k + 1) + parts.(k + 1).width
      done;
      fun () ->
        zero ();
        for k = 0 to Array.length parts - 1 do
          let p = parts.(k) in
          for j = 0 to p.n - 1 do
            let pos = offs.(k) + (j * limb_bits) and v = ints.(p.base + j) in
            let d = pos / limb_bits and r = pos mod limb_bits in
            if d < o.n then set ints o d (ints.(o.base + d) lor ((v lsl r) land limb_mask));
            if r > 0 && d + 1 < o.n then
              set ints o (d + 1) (ints.(o.base + d + 1) lor (v lsr (limb_bits - r)))
          done
        done
  | "comb.shl" | "comb.shru" ->
      let dir = if op = "comb.shl" then -1 else 1 in
      fun () ->
        let k = small_value ints b in
        if k >= o.width then zero () else shift ~signed:false (dir * k)
  | "comb.shrs" -> fun () -> shift ~signed:true (min (small_value ints b) (o.width - 1))
  | "comb.icmp_eq" -> cmp false (fun c -> c = 0)
  | "comb.icmp_ne" -> cmp false (fun c -> c <> 0)
  | "comb.icmp_ult" -> cmp false (fun c -> c < 0)
  | "comb.icmp_ule" -> cmp false (fun c -> c <= 0)
  | "comb.icmp_ugt" -> cmp false (fun c -> c > 0)
  | "comb.icmp_uge" -> cmp false (fun c -> c >= 0)
  | "comb.icmp_slt" -> cmp true (fun c -> c < 0)
  | "comb.icmp_sle" -> cmp true (fun c -> c <= 0)
  | "comb.icmp_sgt" -> cmp true (fun c -> c > 0)
  | "comb.icmp_sge" -> cmp true (fun c -> c >= 0)
  | other -> invalid_arg (Printf.sprintf "Compiled: not a comb op: %s" other)

let create (m : Netlist.t) : t =
  let s = sort m in
  let n_nodes = Array.length s.node_at in
  (* arena layout: each signal's limbs, by id *)
  let widths =
    Array.append
      (Array.map node_width s.node_at)
      (Array.of_list (List.map (fun p -> p.port_width) m.inputs))
  in
  let next = ref 0 in
  let slots =
    Array.map
      (fun w ->
        let sl = slot_at !next w in
        next := !next + sl.n;
        sl)
      widths
  in
  let ints = Array.make (max 1 !next) 0 in
  let compile_node i =
    let o = slots.(i) in
    let ins = Array.map (fun j -> slots.(j)) s.refs.(i) in
    match s.node_at.(i) with
    | Comb { op = "hw.constant"; attrs; _ } -> (
        (* constants are written into the arena once, at compile time *)
        match List.assoc_opt "value" attrs with
        | Some (Ir.Mir.A_bv v) ->
            write_bv ints o v;
            None
        | _ -> invalid_arg "hw.constant without value")
    | Comb c ->
        if Array.for_all (fun sl -> sl.n = 1) ins && o.n = 1 then
          Some (narrow_comb ints c.op c.attrs o ins)
        else Some (wide_comb ints c.op c.attrs o ins)
    | Rom r ->
        let len = Array.length r.table and ix = ins.(0) in
        let tbl = Array.concat (Array.to_list (Array.map (limbs_of r.width) r.table)) in
        Some
          (fun () ->
            let k = small_value ints ix in
            for j = 0 to o.n - 1 do
              ints.(o.base + j) <- (if k < len then tbl.((k * o.n) + j) else 0)
            done)
    | Reg _ -> None
  in
  let steps = Array.of_list (List.filter_map compile_node (Array.to_list s.order)) in
  (* registers: reset state now; sample-then-commit closures for clock *)
  let staged = Array.make (max 1 !next) 0 in
  let enabled = Array.make (max 1 n_nodes) false in
  let reg_prog i (r : reg_node) =
    let o = slots.(i) and nx = slots.(s.refs.(i).(0)) in
    Array.blit
      (limbs_of r.width (Option.value r.init ~default:(Bitvec.zero (u r.width))))
      0 ints o.base o.n;
    let en =
      if Array.length s.refs.(i) = 1 then fun () -> true
      else
        let e = slots.(s.refs.(i).(1)) in
        fun () -> is_nonzero ints e
    in
    let sample () =
      enabled.(i) <- en ();
      if enabled.(i) then
        for j = 0 to o.n - 1 do
          let v = limb ints nx j in
          staged.(o.base + j) <- (if j = o.n - 1 then v land o.top_mask else v)
        done
    and commit () =
      if enabled.(i) then
        for j = o.base to o.base + o.n - 1 do
          ints.(j) <- staged.(j)
        done
    in
    (sample, commit)
  in
  let progs =
    List.filter_map
      (fun i -> match s.node_at.(i) with Reg r -> Some (reg_prog i r) | _ -> None)
      (List.init n_nodes Fun.id)
  in
  let ports ps =
    let h = Hashtbl.create 16 in
    List.iter
      (fun p ->
        Hashtbl.replace h p.port_name
          { p_slot = slots.(Hashtbl.find s.ids p.port_signal); p_width = p.port_width })
      ps;
    h
  in
  (* compiling wrote the constants; registers hold their init values and
     inputs are zero: this is the state [reset] returns to *)
  {
    ints;
    init = Array.copy ints;
    steps;
    samples = Array.of_list (List.map fst progs);
    commits = Array.of_list (List.map snd progs);
    ids = s.ids;
    slots;
    inputs = ports m.inputs;
    outputs = ports m.outputs;
  }

let reset t = Array.blit t.init 0 t.ints 0 (Array.length t.ints)

let set_input t name v =
  match Hashtbl.find_opt t.inputs name with
  | Some p -> write_bv t.ints p.p_slot v
  | None -> nl_error "no input port %s" name

let signal_opt t name =
  Option.map (fun i -> read_bv t.ints t.slots.(i) t.slots.(i).width) (Hashtbl.find_opt t.ids name)

(* settle combinational logic: run the straight-line update program *)
let eval t =
  let steps = t.steps in
  for i = 0 to Array.length steps - 1 do
    steps.(i) ()
  done

(* advance registers (two-phase: sample all, then update) *)
let clock t =
  for i = 0 to Array.length t.samples - 1 do
    t.samples.(i) ()
  done;
  for i = 0 to Array.length t.commits - 1 do
    t.commits.(i) ()
  done

let output t name =
  match Hashtbl.find_opt t.outputs name with
  | Some p -> read_bv t.ints p.p_slot p.p_width
  | None -> nl_error "no output port %s" name

(* a port of at most one limb, resolved once: its arena slot and width mask *)
let int_port ports kind name =
  match Hashtbl.find_opt ports name with
  | Some p when p.p_width > limb_bits ->
      invalid_arg (Printf.sprintf "Compiled: %s port %s is wider than %d bits" kind name limb_bits)
  | Some p -> (p.p_slot.base, mask p.p_width)
  | None -> nl_error "no %s port %s" kind name

let int_input t name =
  let i, m = int_port t.inputs "input" name in
  fun v -> t.ints.(i) <- v land m

let int_output t name =
  let i, m = int_port t.outputs "output" name in
  fun () -> t.ints.(i) land m
