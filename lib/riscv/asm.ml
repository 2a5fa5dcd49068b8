(* A small RV32IM assembler, encoded from the CoreDSL description (see
   asm.mli): each base mnemonic's operands become field values for the
   instruction of the same, upper-cased name in the RV32IM unit, and
   pseudo-instructions expand to base instructions. *)

exception Asm_error of string

let asm_error fmt = Format.kasprintf (fun m -> raise (Asm_error m)) fmt

(* x0..x31 by ABI name, and fp = s0 *)
let abi_names =
  ("fp", 8)
  :: List.mapi
       (fun i n -> (n, i))
       (String.split_on_char ' '
          "zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 a6 a7 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6")

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
  | Some i when s.[String.length s - 1] = ')' ->
      let off = String.trim (String.sub s 0 i) in
      let reg = String.sub s (i + 1) (String.length s - i - 2) in
      let off =
        if off = "" then 0
        else
          match int_of_string_opt off with
          | Some n -> n
          | None -> asm_error "bad offset '%s' in '%s'" off s
      in
      Mem (off, parse_reg reg)
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Imm i
      | None -> (
          try Reg (parse_reg s)
          with Asm_error _ -> Label s))

type custom_encoder = string -> (string * int) list -> int

let u32 = Bitvec.unsigned_ty 32

let encoder (tu : Coredsl.Tast.tunit) : custom_encoder =
 fun name fields ->
  match Coredsl.Tast.find_tinstr tu name with
  | None -> asm_error "unknown instruction '%s'" name
  | Some ti ->
      List.iter
        (fun (f : Coredsl.Tast.field_info) ->
          if not (List.mem_assoc f.fld_name fields) then
            asm_error "missing field '%s' for %s" f.fld_name name)
        ti.fields;
      Bitvec.to_int
        (Coredsl.Interp.encode ti (List.map (fun (k, v) -> (k, Bitvec.of_int u32 v)) fields))

let rv32im = lazy (encoder (Coredsl.compile_rv32im ()))
let encode_base mnem fields = Lazy.force rv32im (String.uppercase_ascii mnem) fields

(* Each base mnemonic's operand shape, with the operands it reads. *)
type shape = R | I | Shift | Load | Store | Branch | U | J | Jalr | Sys

let shapes =
  List.concat_map
    (fun (shape, operands, mnems) ->
      List.map (fun m -> (m, (shape, operands))) (String.split_on_char ' ' mnems))
    [
      (R, "rd, rs1, rs2", "add sub sll slt sltu xor srl sra or and mul mulh mulhsu mulhu div divu rem remu");
      (I, "rd, rs1, imm", "addi slti sltiu xori ori andi");
      (Shift, "rd, rs1, shamt", "slli srli srai");
      (Load, "rd, imm(rs1)", "lb lh lw lbu lhu");
      (Store, "rs2, imm(rs1)", "sb sh sw");
      (Branch, "rs1, rs2, target", "beq bne blt bge bltu bgeu");
      (U, "rd, imm", "lui auipc");
      (J, "rd, target", "jal");
      (Jalr, "rd, imm(rs1) or rd, rs1, imm", "jalr");
      (Sys, "no operands", "ecall ebreak");
    ]

(* `.isax NAME field=value ...`, fields separated by spaces or commas *)
let isax_fields rest =
  let toks =
    String.split_on_char ' ' rest
    |> List.concat_map (String.split_on_char ',')
    |> List.filter_map (fun s -> match String.trim s with "" -> None | s -> Some s)
  in
  let field f =
    match String.index_opt f '=' with
    | Some i ->
        let v = String.trim (String.sub f (i + 1) (String.length f - i - 1)) in
        (String.trim (String.sub f 0 i), match int_of_string_opt v with Some n -> n | None -> parse_reg v)
    | None -> asm_error "bad .isax field '%s'" f
  in
  match toks with
  | name :: fields -> (name, List.map field fields)
  | [] -> asm_error ".isax needs an instruction name"

let assemble ?(base = 0) ?(custom : custom_encoder option) (src : string) : int list =
  (* first pass: each line's words as functions of their pc and the label
     resolver, collecting label addresses *)
  let items = ref [] and labels = Hashtbl.create 16 in
  let pc = ref base in
  let emit f =
    items := (f, !pc) :: !items;
    pc := !pc + 4
  in
  let word w = emit (fun _ _ -> w) in
  let reg = function
    | Reg r -> r
    | Imm i -> asm_error "expected register, got %d" i
    | Label l -> asm_error "expected register, got %s" l
    | Mem _ -> asm_error "expected register, got mem operand"
  in
  let imm = function Imm i -> i | _ -> asm_error "expected immediate" in
  (* [ins m fields] emits base instruction [m]; [rel m fields target]
     one whose imm is the distance from its own pc to [target] *)
  let ins m fields = word (encode_base m fields) in
  let rel m fields = function
    | Imm ofs -> ins m (("imm", ofs) :: fields)
    | Label l -> emit (fun pc resolve -> encode_base m (("imm", resolve l - pc) :: fields))
    | _ -> asm_error "%s needs a label or offset as its target" m
  in
  let instruction mnem ops =
    match (mnem, ops) with
    | "nop", [] -> ins "addi" [ ("rd", 0); ("rs1", 0); ("imm", 0) ]
    | "li", [ rd; i ] ->
        let rd = reg rd and v = imm i in
        if v >= -2048 && v < 2048 then ins "addi" [ ("rd", rd); ("rs1", 0); ("imm", v) ]
        else begin
          (* lui + addi; addi sign-extends its 12-bit immediate, so lui
             loads the upper part rounded to compensate *)
          let lo = ((v land 0xFFF) lxor 0x800) - 0x800 in
          ins "lui" [ ("rd", rd); ("imm", v - lo) ];
          ins "addi" [ ("rd", rd); ("rs1", rd); ("imm", lo) ]
        end
    | "mv", [ rd; rs ] -> ins "addi" [ ("rd", reg rd); ("rs1", reg rs); ("imm", 0) ]
    | "j", [ target ] -> rel "jal" [ ("rd", 0) ] target
    | "jal", [ (Label _ as target) ] -> rel "jal" [ ("rd", 1) ] target
    | "ret", [] -> ins "jalr" [ ("rd", 0); ("rs1", 1); ("imm", 0) ]
    | "beqz", [ rs; target ] -> rel "beq" [ ("rs1", reg rs); ("rs2", 0) ] target
    | "bnez", [ rs; target ] -> rel "bne" [ ("rs1", reg rs); ("rs2", 0) ] target
    | ".word", [ Imm v ] -> word (v land 0xFFFFFFFF)
    | ("nop" | "li" | "mv" | "j" | "ret" | "beqz" | "bnez" | ".word"), _ ->
        asm_error "bad operands for %s" mnem
    | _ -> (
        match (List.assoc_opt mnem shapes, ops) with
        | None, _ -> asm_error "unknown mnemonic '%s'" mnem
        | Some (R, _), [ rd; rs1; rs2 ] -> ins mnem [ ("rd", reg rd); ("rs1", reg rs1); ("rs2", reg rs2) ]
        | Some ((I | Jalr), _), [ rd; rs1; i ] -> ins mnem [ ("rd", reg rd); ("rs1", reg rs1); ("imm", imm i) ]
        | Some (Shift, _), [ rd; rs1; i ] -> ins mnem [ ("rd", reg rd); ("rs1", reg rs1); ("shamt", imm i) ]
        | Some ((Load | Jalr), _), [ rd; Mem (ofs, rs1) ] -> ins mnem [ ("rd", reg rd); ("rs1", rs1); ("imm", ofs) ]
        | Some (Store, _), [ rs2; Mem (ofs, rs1) ] -> ins mnem [ ("rs2", reg rs2); ("rs1", rs1); ("imm", ofs) ]
        | Some (Branch, _), [ rs1; rs2; target ] -> rel mnem [ ("rs1", reg rs1); ("rs2", reg rs2) ] target
        | Some (U, _), [ rd; i ] -> ins mnem [ ("rd", reg rd); ("imm", imm i lsl 12) ]
        | Some (J, _), [ rd; target ] -> rel mnem [ ("rd", reg rd) ] target
        | Some (Sys, _), [] -> ins mnem []
        | Some (_, operands), _ -> asm_error "%s needs %s" mnem operands)
  in
  let process_line raw =
    let line = match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw in
    let line =
      match String.index_opt line ':' with
      | Some i ->
          Hashtbl.replace labels (String.trim (String.sub line 0 i)) !pc;
          String.sub line (i + 1) (String.length line - i - 1)
      | None -> line
    in
    match String.trim line with
    | "" -> ()
    | line -> (
        let mnem, rest =
          match String.index_opt line ' ' with
          | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
          | None -> (line, "")
        in
        match (String.lowercase_ascii mnem, custom) with
        | ".isax", None -> asm_error ".isax used without a custom encoder"
        | ".isax", Some enc ->
            let name, fields = isax_fields rest in
            word (enc name fields)
        | mnem, _ ->
            let ops = if String.trim rest = "" then [] else String.split_on_char ',' rest in
            instruction mnem (List.map parse_operand ops))
  in
  List.iter process_line (String.split_on_char '\n' src);
  let resolve l =
    match Hashtbl.find_opt labels l with
    | Some a -> a
    | None -> asm_error "undefined label '%s'" l
  in
  List.rev_map (fun (f, pc) -> f pc resolve) !items
