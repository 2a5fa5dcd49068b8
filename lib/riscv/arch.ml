(* Architectural-state helpers shared by the three program engines
   (Machine, Pipeline, Rtl_loop): each keeps its registers and memory in
   one CoreDSL interpreter state and reaches them through these. *)

module Interp = Coredsl.Interp
module Tast = Coredsl.Tast

exception Out_of_fuel of int

let u32 = Bitvec.unsigned_ty 32
let bv v = Bitvec.of_int u32 v

let read_pc st = Bitvec.to_int (Interp.read_reg st "PC")

(* a plain store: unlike [Interp.write_reg] it does not mark the PC as
   written by the current instruction *)
let write_pc st v = (Interp.reg_array st "PC").(0) <- bv v

let read_gpr st i = Bitvec.to_int (Interp.read_regfile st "X" i)
let write_gpr st i v = if i <> 0 then (Interp.reg_array st "X").(i) <- bv v

(* the little-endian word at [addr] of MEM, whose elements are bytes, on
   native ints *)
let rec load_bytes mem addr k =
  if k = 0 then 0
  else
    let b = match Hashtbl.find mem addr with b -> Bitvec.to_int b land 0xFF | exception Not_found -> 0 in
    b lor (load_bytes mem (addr + 1) (k - 1) lsl 8)

let load_word st addr = load_bytes (Hashtbl.find st.Interp.mems "MEM") addr 4
let store_word st addr v = Interp.write_mem st "MEM" addr 4 (bv v)

(* a custom-register (file) write, cast to the register's type *)
let write_custreg st reg idx data =
  let a = Interp.reg_array st reg in
  a.(idx) <- Bitvec.cast (Bitvec.typ a.(0)) data

(* a little-endian store of [data]'s whole width *)
let write_mem st addr data = Interp.write_mem st "MEM" addr (Bitvec.width data / 8) data

let load_program st ~base words =
  List.iteri (fun i w -> store_word st (base + (4 * i)) w) words;
  write_pc st base

(* an encoding field of a 32-bit instruction word, decoded on native ints *)
let field_value ti word name =
  Option.map (fun fi -> Interp.decode_field_int fi (Bitvec.to_int word)) (Tast.find_field ti name)

let run_with_fuel ~fuel step =
  let rec go n = if n <= 0 then raise (Out_of_fuel fuel) else if step () then go (n - 1) in
  go fuel
