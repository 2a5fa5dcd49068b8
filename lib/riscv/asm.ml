(* A small RV32I assembler.

   Supports the full RV32I base set, the usual pseudo-instructions, labels,
   and a directive for custom ISAX instructions:

     .isax NAME field=value field=value ...

   where NAME is an instruction defined in a CoreDSL unit and the fields
   are its encoding fields (register fields take x-register numbers or ABI
   names, immediates take integers or label references). Used to write the
   "handwritten assembler programs" with which the paper verifies the
   extended cores (Section 5.3) and the Section 5.5 case study. *)

exception Asm_error of string

let asm_error fmt = Format.kasprintf (fun m -> raise (Asm_error m)) fmt

let abi_names =
  [
    ("zero", 0); ("ra", 1); ("sp", 2); ("gp", 3); ("tp", 4);
    ("t0", 5); ("t1", 6); ("t2", 7);
    ("s0", 8); ("fp", 8); ("s1", 9);
    ("a0", 10); ("a1", 11); ("a2", 12); ("a3", 13); ("a4", 14); ("a5", 15); ("a6", 16); ("a7", 17);
    ("s2", 18); ("s3", 19); ("s4", 20); ("s5", 21); ("s6", 22); ("s7", 23); ("s8", 24); ("s9", 25);
    ("s10", 26); ("s11", 27);
    ("t3", 28); ("t4", 29); ("t5", 30); ("t6", 31);
  ]

let parse_reg s =
  let s = String.lowercase_ascii (String.trim s) in
  if String.length s >= 2 && s.[0] = 'x' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r when r >= 0 && r < 32 -> r
    | _ -> asm_error "bad register '%s'" s
  else
    match List.assoc_opt s abi_names with
    | Some r -> r
    | None -> asm_error "bad register '%s'" s

type operand =
  | Reg of int
  | Imm of int
  | Label of string
  | Mem of int * int  (* offset(reg) *)

let parse_operand s =
  let s = String.trim s in
  if s = "" then asm_error "empty operand";
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
      let off = String.trim (String.sub s 0 i) in
      let reg = String.sub s (i + 1) (String.length s - i - 2) in
      let off = if off = "" then 0 else int_of_string off in
      Mem (off, parse_reg reg)
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Imm i
      | None -> (
          try Reg (parse_reg s)
          with Asm_error _ -> Label s))

(* encoders *)
let r_type ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode =
  (funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let i_type ~imm ~rs1 ~funct3 ~rd ~opcode =
  ((imm land 0xFFF) lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let s_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  (((imm lsr 5) land 0x7F) lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor ((imm land 0x1F) lsl 7) lor opcode

let b_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  (((imm lsr 12) land 1) lsl 31)
  lor (((imm lsr 5) land 0x3F) lsl 25)
  lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor (((imm lsr 1) land 0xF) lsl 8)
  lor (((imm lsr 11) land 1) lsl 7)
  lor opcode

let u_type ~imm ~rd ~opcode = (imm land 0xFFFFF000) lor (rd lsl 7) lor opcode

let j_type ~imm ~rd ~opcode =
  (((imm lsr 20) land 1) lsl 31)
  lor (((imm lsr 1) land 0x3FF) lsl 21)
  lor (((imm lsr 11) land 1) lsl 20)
  lor (((imm lsr 12) land 0xFF) lsl 12)
  lor (rd lsl 7) lor opcode

type item =
  | Word of int
  | Needs_label of (int -> (string -> int) -> int)  (* pc, label resolver -> word *)

type custom_encoder = string -> (string * int) list -> int
(** ISAX encoder: instruction name, field assignments -> word *)

let split_operands s =
  if String.trim s = "" then []
  else List.map String.trim (String.split_on_char ',' s)

(* first pass: parse lines into items, collecting label addresses *)
let assemble ?(base = 0) ?(custom : custom_encoder option) (src : string) : int list =
  let lines = String.split_on_char '\n' src in
  let items = ref [] and labels = Hashtbl.create 16 in
  let pc = ref base in
  let emit i =
    items := (i, !pc) :: !items;
    pc := !pc + 4
  in
  let reg = function
    | Reg r -> r
    | o -> asm_error "expected register, got %s" (match o with Imm i -> string_of_int i | Label l -> l | Mem _ -> "mem operand" | Reg _ -> assert false)
  in
  let imm = function Imm i -> i | _ -> asm_error "expected immediate" in
  let process_line raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line = "" then ()
    else begin
      (* labels *)
      let line =
        match String.index_opt line ':' with
        | Some i ->
            let lbl = String.trim (String.sub line 0 i) in
            Hashtbl.replace labels lbl !pc;
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | None -> line
      in
      if line = "" then ()
      else begin
        let mnem, rest =
          match String.index_opt line ' ' with
          | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
          | None -> (line, "")
        in
        let mnem = String.lowercase_ascii mnem in
        let ops = List.map parse_operand (split_operands rest) in
        let branch funct3 =
          match ops with
          | [ a; b; Label l ] ->
              let ra = reg a and rb = reg b in
              emit (Needs_label (fun pc resolve -> b_type ~imm:(resolve l - pc) ~rs2:rb ~rs1:ra ~funct3 ~opcode:0x63))
          | [ a; b; Imm ofs ] -> emit (Word (b_type ~imm:ofs ~rs2:(reg b) ~rs1:(reg a) ~funct3 ~opcode:0x63))
          | _ -> asm_error "branch needs rs1, rs2, target"
        in
        let alu_imm funct3 =
          match ops with
          | [ rd; rs1; i ] -> emit (Word (i_type ~imm:(imm i) ~rs1:(reg rs1) ~funct3 ~rd:(reg rd) ~opcode:0x13))
          | _ -> asm_error "%s needs rd, rs1, imm" mnem
        in
        let shift_imm funct3 funct7 =
          match ops with
          | [ rd; rs1; i ] ->
              emit (Word (r_type ~funct7 ~rs2:(imm i land 31) ~rs1:(reg rs1) ~funct3 ~rd:(reg rd) ~opcode:0x13))
          | _ -> asm_error "%s needs rd, rs1, shamt" mnem
        in
        let alu_reg funct3 funct7 =
          match ops with
          | [ rd; rs1; rs2 ] ->
              emit (Word (r_type ~funct7 ~rs2:(reg rs2) ~rs1:(reg rs1) ~funct3 ~rd:(reg rd) ~opcode:0x33))
          | _ -> asm_error "%s needs rd, rs1, rs2" mnem
        in
        let load funct3 =
          match ops with
          | [ rd; Mem (ofs, base) ] -> emit (Word (i_type ~imm:ofs ~rs1:base ~funct3 ~rd:(reg rd) ~opcode:0x03))
          | _ -> asm_error "%s needs rd, ofs(rs1)" mnem
        in
        let store funct3 =
          match ops with
          | [ rs2; Mem (ofs, base) ] -> emit (Word (s_type ~imm:ofs ~rs2:(reg rs2) ~rs1:base ~funct3 ~opcode:0x23))
          | _ -> asm_error "%s needs rs2, ofs(rs1)" mnem
        in
        match mnem with
        | "lui" -> (match ops with
            | [ rd; i ] -> emit (Word (u_type ~imm:(imm i lsl 12) ~rd:(reg rd) ~opcode:0x37))
            | _ -> asm_error "lui needs rd, imm")
        | "auipc" -> (match ops with
            | [ rd; i ] -> emit (Word (u_type ~imm:(imm i lsl 12) ~rd:(reg rd) ~opcode:0x17))
            | _ -> asm_error "auipc needs rd, imm")
        | "jal" -> (match ops with
            | [ rd; Label l ] ->
                let r = reg rd in
                emit (Needs_label (fun pc resolve -> j_type ~imm:(resolve l - pc) ~rd:r ~opcode:0x6F))
            | [ Label l ] -> emit (Needs_label (fun pc resolve -> j_type ~imm:(resolve l - pc) ~rd:1 ~opcode:0x6F))
            | _ -> asm_error "jal needs rd, label")
        | "j" -> (match ops with
            | [ Label l ] -> emit (Needs_label (fun pc resolve -> j_type ~imm:(resolve l - pc) ~rd:0 ~opcode:0x6F))
            | _ -> asm_error "j needs label")
        | "jalr" -> (match ops with
            | [ rd; Mem (ofs, base) ] -> emit (Word (i_type ~imm:ofs ~rs1:base ~funct3:0 ~rd:(reg rd) ~opcode:0x67))
            | [ rd; rs1; i ] -> emit (Word (i_type ~imm:(imm i) ~rs1:(reg rs1) ~funct3:0 ~rd:(reg rd) ~opcode:0x67))
            | _ -> asm_error "jalr needs rd, ofs(rs1)")
        | "ret" -> emit (Word (i_type ~imm:0 ~rs1:1 ~funct3:0 ~rd:0 ~opcode:0x67))
        | "beq" -> branch 0
        | "bne" -> branch 1
        | "blt" -> branch 4
        | "bge" -> branch 5
        | "bltu" -> branch 6
        | "bgeu" -> branch 7
        | "beqz" -> (match ops with
            | [ a; l ] -> (match l with
                | Label l ->
                    let ra = reg a in
                    emit (Needs_label (fun pc resolve -> b_type ~imm:(resolve l - pc) ~rs2:0 ~rs1:ra ~funct3:0 ~opcode:0x63))
                | _ -> asm_error "beqz needs reg, label")
            | _ -> asm_error "beqz needs reg, label")
        | "bnez" -> (match ops with
            | [ a; l ] -> (match l with
                | Label l ->
                    let ra = reg a in
                    emit (Needs_label (fun pc resolve -> b_type ~imm:(resolve l - pc) ~rs2:0 ~rs1:ra ~funct3:1 ~opcode:0x63))
                | _ -> asm_error "bnez needs reg, label")
            | _ -> asm_error "bnez needs reg, label")
        | "lb" -> load 0
        | "lh" -> load 1
        | "lw" -> load 2
        | "lbu" -> load 4
        | "lhu" -> load 5
        | "sb" -> store 0
        | "sh" -> store 1
        | "sw" -> store 2
        | "addi" -> alu_imm 0
        | "slti" -> alu_imm 2
        | "sltiu" -> alu_imm 3
        | "xori" -> alu_imm 4
        | "ori" -> alu_imm 6
        | "andi" -> alu_imm 7
        | "slli" -> shift_imm 1 0x00
        | "srli" -> shift_imm 5 0x00
        | "srai" -> shift_imm 5 0x20
        | "add" -> alu_reg 0 0x00
        | "sub" -> alu_reg 0 0x20
        | "sll" -> alu_reg 1 0x00
        | "slt" -> alu_reg 2 0x00
        | "sltu" -> alu_reg 3 0x00
        | "xor" -> alu_reg 4 0x00
        | "srl" -> alu_reg 5 0x00
        | "sra" -> alu_reg 5 0x20
        | "or" -> alu_reg 6 0x00
        | "and" -> alu_reg 7 0x00
        | "mul" -> alu_reg 0 0x01
        | "mulh" -> alu_reg 1 0x01
        | "mulhsu" -> alu_reg 2 0x01
        | "mulhu" -> alu_reg 3 0x01
        | "div" -> alu_reg 4 0x01
        | "divu" -> alu_reg 5 0x01
        | "rem" -> alu_reg 6 0x01
        | "remu" -> alu_reg 7 0x01
        | "nop" -> emit (Word (i_type ~imm:0 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:0x13))
        | "li" -> (match ops with
            | [ rd; i ] ->
                let v = imm i in
                if v >= -2048 && v < 2048 then
                  emit (Word (i_type ~imm:v ~rs1:0 ~funct3:0 ~rd:(reg rd) ~opcode:0x13))
                else begin
                  (* lui + addi; addi sign-extends its 12-bit immediate,
                     so lui loads the upper part rounded to compensate *)
                  let lo = ((v land 0xFFF) lxor 0x800) - 0x800 in
                  let hi = (v - lo) land 0xFFFFFFFF in
                  let r = reg rd in
                  emit (Word (u_type ~imm:hi ~rd:r ~opcode:0x37));
                  emit (Word (i_type ~imm:lo ~rs1:r ~funct3:0 ~rd:r ~opcode:0x13))
                end
            | _ -> asm_error "li needs rd, imm")
        | "mv" -> (match ops with
            | [ rd; rs ] -> emit (Word (i_type ~imm:0 ~rs1:(reg rs) ~funct3:0 ~rd:(reg rd) ~opcode:0x13))
            | _ -> asm_error "mv needs rd, rs")
        | "ebreak" -> emit (Word (i_type ~imm:1 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:0x73))
        | "ecall" -> emit (Word (i_type ~imm:0 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:0x73))
        | ".word" -> (match ops with
            | [ Imm v ] -> emit (Word (v land 0xFFFFFFFF))
            | _ -> asm_error ".word needs a value")
        | ".isax" -> (
            match custom with
            | None -> asm_error ".isax used without a custom encoder"
            | Some enc -> (
                let toks =
                  String.split_on_char ' ' rest
                  |> List.concat_map (String.split_on_char ',')
                  |> List.map String.trim
                  |> List.filter (fun s -> s <> "")
                in
                match toks with
                | name :: fields ->
                    let kvs =
                      List.map
                        (fun f ->
                          match String.index_opt f '=' with
                          | Some i ->
                              let k = String.trim (String.sub f 0 i) in
                              let v = String.trim (String.sub f (i + 1) (String.length f - i - 1)) in
                              let v =
                                match int_of_string_opt v with
                                | Some n -> n
                                | None -> parse_reg v
                              in
                              (k, v)
                          | None -> asm_error "bad .isax field '%s'" f)
                        fields
                    in
                    emit (Word (enc (String.trim name) kvs))
                | [] -> asm_error ".isax needs an instruction name"))
        | m -> asm_error "unknown mnemonic '%s'" m
      end
    end
  in
  List.iter process_line lines;
  let resolve l =
    match Hashtbl.find_opt labels l with
    | Some a -> a
    | None -> asm_error "undefined label '%s'" l
  in
  List.rev_map
    (fun (item, pc) ->
      match item with Word w -> w | Needs_label f -> f pc resolve)
    !items
