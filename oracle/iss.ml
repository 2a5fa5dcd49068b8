(* Native RV32I instruction-set simulator.

   A fast, hand-written golden model operating on OCaml ints. Used as the
   oracle to cross-validate the CoreDSL-described RV32I (the same
   instructions executed through the reference interpreter must produce
   identical architectural state). *)

type t = {
  mutable pc : int;
  regs : int array;  (* 32 registers, values in [0, 2^32) *)
  mem : (int, int) Hashtbl.t;  (* byte-addressable *)
}

let mask32 = 0xFFFFFFFF

let create () = { pc = 0; regs = Array.make 32 0; mem = Hashtbl.create 1024 }

let read_reg t i = if i = 0 then 0 else t.regs.(i)

let write_reg t i v = if i <> 0 then t.regs.(i) <- v land mask32

let read_byte t a = Option.value ~default:0 (Hashtbl.find_opt t.mem (a land mask32))
let write_byte t a v = Hashtbl.replace t.mem (a land mask32) (v land 0xFF)

let read_word t a =
  read_byte t a lor (read_byte t (a + 1) lsl 8) lor (read_byte t (a + 2) lsl 16)
  lor (read_byte t (a + 3) lsl 24)

let write_word t a v =
  write_byte t a v;
  write_byte t (a + 1) (v lsr 8);
  write_byte t (a + 2) (v lsr 16);
  write_byte t (a + 3) (v lsr 24)

let read_half t a = read_byte t a lor (read_byte t (a + 1) lsl 8)

let write_half t a v =
  write_byte t a v;
  write_byte t (a + 1) (v lsr 8)

(* sign extension from bit [b] *)
let sext v b = if v land (1 lsl b) <> 0 then v - (1 lsl (b + 1)) else v

(* signed view of a 32-bit value *)
let s32 v = sext (v land mask32) 31

exception Unknown_instruction of int

(* Execute one instruction word; updates pc. *)
let step_word t w =
  let opcode = w land 0x7F in
  let rd = (w lsr 7) land 0x1F in
  let funct3 = (w lsr 12) land 0x7 in
  let rs1 = (w lsr 15) land 0x1F in
  let rs2 = (w lsr 20) land 0x1F in
  let funct7 = (w lsr 25) land 0x7F in
  let i_imm = sext ((w lsr 20) land 0xFFF) 11 in
  let s_imm = sext ((((w lsr 25) land 0x7F) lsl 5) lor ((w lsr 7) land 0x1F)) 11 in
  let b_imm =
    sext
      ((((w lsr 31) land 1) lsl 12)
      lor (((w lsr 7) land 1) lsl 11)
      lor (((w lsr 25) land 0x3F) lsl 5)
      lor (((w lsr 8) land 0xF) lsl 1))
      12
  in
  let u_imm = w land 0xFFFFF000 in
  let j_imm =
    sext
      ((((w lsr 31) land 1) lsl 20)
      lor (((w lsr 12) land 0xFF) lsl 12)
      lor (((w lsr 20) land 1) lsl 11)
      lor (((w lsr 21) land 0x3FF) lsl 1))
      20
  in
  let v1 = read_reg t rs1 and v2 = read_reg t rs2 in
  let next = ref ((t.pc + 4) land mask32) in
  (match opcode with
  | 0x37 -> write_reg t rd u_imm (* LUI *)
  | 0x17 -> write_reg t rd (t.pc + u_imm) (* AUIPC *)
  | 0x6F ->
      write_reg t rd (t.pc + 4);
      next := (t.pc + j_imm) land mask32 (* JAL *)
  | 0x67 ->
      let target = (v1 + i_imm) land lnot 1 land mask32 in
      write_reg t rd (t.pc + 4);
      next := target (* JALR *)
  | 0x63 ->
      let taken =
        match funct3 with
        | 0 -> v1 = v2
        | 1 -> v1 <> v2
        | 4 -> s32 v1 < s32 v2
        | 5 -> s32 v1 >= s32 v2
        | 6 -> v1 < v2
        | 7 -> v1 >= v2
        | _ -> raise (Unknown_instruction w)
      in
      if taken then next := (t.pc + b_imm) land mask32
  | 0x03 ->
      let a = (v1 + i_imm) land mask32 in
      let v =
        match funct3 with
        | 0 -> sext (read_byte t a) 7 land mask32
        | 1 -> sext (read_half t a) 15 land mask32
        | 2 -> read_word t a
        | 4 -> read_byte t a
        | 5 -> read_half t a
        | _ -> raise (Unknown_instruction w)
      in
      write_reg t rd v
  | 0x23 ->
      let a = (v1 + s_imm) land mask32 in
      (match funct3 with
      | 0 -> write_byte t a v2
      | 1 -> write_half t a v2
      | 2 -> write_word t a v2
      | _ -> raise (Unknown_instruction w))
  | 0x13 ->
      let shamt = rs2 in
      let v =
        match funct3 with
        | 0 -> v1 + i_imm
        | 2 -> if s32 v1 < i_imm then 1 else 0
        | 3 -> if v1 < i_imm land mask32 then 1 else 0
        | 4 -> v1 lxor (i_imm land mask32)
        | 6 -> v1 lor (i_imm land mask32)
        | 7 -> v1 land (i_imm land mask32)
        | 1 when funct7 = 0x00 -> v1 lsl shamt
        | 5 when funct7 = 0x00 -> v1 lsr shamt
        | 5 when funct7 = 0x20 -> s32 v1 asr shamt
        | _ -> raise (Unknown_instruction w)
      in
      write_reg t rd v
  | 0x33 when funct7 = 0x01 ->
      (* RV32M; native ints are 63-bit, so 32x32 products need care: split
         the multiplication to stay in range *)
      let mul_full a b =
        (* full 64-bit product of two unsigned 32-bit values as (hi, lo) *)
        let a0 = a land 0xFFFF and a1 = a lsr 16 in
        let b0 = b land 0xFFFF and b1 = b lsr 16 in
        let ll = a0 * b0 in
        let lh = a0 * b1 and hl = a1 * b0 in
        let hh = a1 * b1 in
        let mid = lh + hl + (ll lsr 16) in
        let lo = ((mid land 0xFFFF) lsl 16) lor (ll land 0xFFFF) in
        let hi = hh + (mid lsr 16) in
        (hi land mask32, lo land mask32)
      in
      let signed_hi a b =
        (* high word of the signed 64-bit product *)
        let sa = s32 a and sb = s32 b in
        let neg = sa < 0 <> (sb < 0) in
        let ua = abs sa and ub = abs sb in
        let hi, lo = mul_full ua ub in
        if not neg then hi
        else begin
          (* two's complement negate the 64-bit (hi, lo) *)
          let lo' = (lnot lo + 1) land mask32 in
          let hi' = (lnot hi + if lo = 0 then 1 else 0) land mask32 in
          ignore lo';
          hi'
        end
      in
      let mulhsu_hi a b =
        let sa = s32 a in
        let neg = sa < 0 in
        let hi, lo = mul_full (abs sa) b in
        if not neg then hi
        else (lnot hi + if lo = 0 then 1 else 0) land mask32
      in
      let v =
        match funct3 with
        | 0 -> snd (mul_full v1 v2)
        | 1 -> signed_hi v1 v2
        | 2 -> mulhsu_hi v1 v2
        | 3 -> fst (mul_full v1 v2)
        | 4 ->
            if v2 = 0 then mask32
            else if s32 v1 = -0x80000000 && s32 v2 = -1 then 0x80000000
            else (s32 v1 / s32 v2) land mask32
        | 5 -> if v2 = 0 then mask32 else v1 / v2
        | 6 ->
            if v2 = 0 then v1
            else if s32 v1 = -0x80000000 && s32 v2 = -1 then 0
            else (s32 v1 mod s32 v2) land mask32
        | 7 -> if v2 = 0 then v1 else v1 mod v2
        | _ -> raise (Unknown_instruction w)
      in
      write_reg t rd v
  | 0x33 ->
      let sh = v2 land 31 in
      let v =
        match (funct3, funct7) with
        | 0, 0x00 -> v1 + v2
        | 0, 0x20 -> v1 - v2
        | 1, 0x00 -> v1 lsl sh
        | 2, 0x00 -> if s32 v1 < s32 v2 then 1 else 0
        | 3, 0x00 -> if v1 < v2 then 1 else 0
        | 4, 0x00 -> v1 lxor v2
        | 5, 0x00 -> v1 lsr sh
        | 5, 0x20 -> s32 v1 asr sh
        | 6, 0x00 -> v1 lor v2
        | 7, 0x00 -> v1 land v2
        | _ -> raise (Unknown_instruction w)
      in
      write_reg t rd v
  | 0x0F -> () (* FENCE *)
  | 0x73 -> () (* ECALL/EBREAK: no-op in this model *)
  | _ -> raise (Unknown_instruction w));
  t.pc <- !next

let step t = step_word t (read_word t t.pc)
