(* Whole-flow fuzzing: generate random CoreDSL instruction behaviors,
   compile them through the complete Longnail flow for a random host core,
   and check that the generated RTL computes exactly what the CoreDSL
   reference interpreter says (the paper's Section 5.3 methodology, at
   property-test scale). A wide mode of the generator checks the staged
   interpreter against its tree-walking oracle. *)

let u32 = Bitvec.unsigned_ty 32
let bv = Bitvec.of_int u32

(* ---- random expression generator ----

   Expressions are built over the operand registers (as local snapshots),
   random literals and earlier locals, with explicit-width casts keeping
   everything type-correct by construction: every generated expression is
   wrapped in a cast to a concrete type, so assignments always succeed.

   The default mode keeps every node within 32 bits (products within
   16x16), which the HLS flow and the RTL comparison need. The wide mode
   feeds the staged interpreter's Bitvec path and its boundaries with the
   native one: widths up to 130 bits, signed locals and casts, shifts,
   dynamic-[lo] extracts, signed comparisons, products past 62 bits and
   divisions that may fault. *)

type rctx = {
  rng : Random.State.t;
  wide : bool;
  mutable locals : (string * int * bool) list; (* name, width, signed *)
}

let rnd ctx n = Random.State.int ctx.rng n

let pick ctx xs = List.nth xs (rnd ctx (List.length xs))

(* an operand width: up to 32 bits, or 130 in the wide mode *)
let rnd_width ctx = 1 + rnd ctx (if ctx.wide then 130 else 32)

(* an expression of exactly [w] unsigned bits *)
let rec gen_expr ctx ~depth ~w : string =
  let cast e = Printf.sprintf "(unsigned<%d>)(%s)" w e in
  let sub w = gen_expr ctx ~depth:(depth - 1) ~w in
  if depth = 0 then gen_leaf ctx ~w
  else
    match rnd ctx (if ctx.wide then 14 else 8) with
    | 0 -> gen_leaf ctx ~w
    | 1 ->
        let wa = rnd_width ctx and wb = rnd_width ctx in
        cast
          (Printf.sprintf "%s + %s" (gen_expr ctx ~depth:(depth - 1) ~w:wa)
             (gen_expr ctx ~depth:(depth - 1) ~w:wb))
    | 2 ->
        let wa = rnd_width ctx and wb = rnd_width ctx in
        cast
          (Printf.sprintf "%s - %s" (gen_expr ctx ~depth:(depth - 1) ~w:wa)
             (gen_expr ctx ~depth:(depth - 1) ~w:wb))
    | 3 ->
        let wa = 1 + rnd ctx (if ctx.wide then 70 else 16) and wb = 1 + rnd ctx (if ctx.wide then 70 else 16) in
        cast
          (Printf.sprintf "%s * %s" (gen_expr ctx ~depth:(depth - 1) ~w:wa)
             (gen_expr ctx ~depth:(depth - 1) ~w:wb))
    | 4 ->
        let op = pick ctx [ "&"; "|"; "^" ] in
        cast
          (Printf.sprintf "%s %s %s"
             (gen_expr ctx ~depth:(depth - 1) ~w)
             op
             (gen_expr ctx ~depth:(depth - 1) ~w))
    | 5 ->
        (* concatenation *)
        let wa = max 1 (w / 2) in
        let wb = max 1 (w - wa) in
        cast
          (Printf.sprintf "%s :: %s"
             (gen_expr ctx ~depth:(depth - 1) ~w:wa)
             (gen_expr ctx ~depth:(depth - 1) ~w:wb))
    | 6 ->
        (* static slice of a wider value *)
        let wide = w + rnd ctx 8 in
        let lo = rnd ctx (wide - w + 1) in
        cast
          (Printf.sprintf "(%s)[%d:%d]" (gen_expr ctx ~depth:(depth - 1) ~w:wide) (lo + w - 1) lo)
    | 7 ->
        (* comparison-driven ternary *)
        let wa = rnd_width ctx in
        cast
          (Printf.sprintf "(%s < %s) ? %s : %s"
             (gen_expr ctx ~depth:(depth - 1) ~w:wa)
             (gen_expr ctx ~depth:(depth - 1) ~w:wa)
             (gen_expr ctx ~depth:(depth - 1) ~w)
             (gen_expr ctx ~depth:(depth - 1) ~w))
    | 8 ->
        (* signed arithmetic, comparison or negation *)
        let wa = rnd_width ctx and wb = rnd_width ctx in
        let sa = Printf.sprintf "(signed<%d>)(%s)" wa (sub wa) and sb = Printf.sprintf "(signed<%d>)(%s)" wb (sub wb) in
        cast
          (match rnd ctx 4 with
          | 0 -> Printf.sprintf "-%s" sa
          | 1 -> Printf.sprintf "~%s" sa
          | _ -> Printf.sprintf "%s %s %s" sa (pick ctx [ "+"; "-"; "*"; "&"; "|"; "^"; "<"; ">="; "=="; "!=" ]) sb)
    | 9 ->
        (* a shift of an unsigned or signed value by at most 255 *)
        let wa = rnd_width ctx in
        let a = if rnd ctx 2 = 0 then sub wa else Printf.sprintf "(signed<%d>)(%s)" wa (sub wa) in
        cast (Printf.sprintf "%s %s (unsigned<8>)(%s)" a (pick ctx [ "<<"; ">>" ]) (sub (1 + rnd ctx 8)))
    | 10 ->
        (* a dynamic-[lo] extract; lo past the value's width faults *)
        let len = 1 + rnd ctx 64 in
        let lo = Printf.sprintf "(%s & %d)" (pick ctx ([ "a"; "b" ] @ List.map (fun (n, _, _) -> n) ctx.locals)) (pick ctx [ 7; 15; 63 ]) in
        let wv = len + rnd ctx 80 in
        cast (Printf.sprintf "(%s)[%s + %d : %s]" (sub wv) lo (len - 1) lo)
    | 11 ->
        (* a product past 62 bits *)
        let wa = 32 + rnd ctx 64 and wb = 32 + rnd ctx 64 in
        cast (Printf.sprintf "%s * %s" (sub wa) (sub wb))
    | 12 ->
        (* division or remainder, by zero at times; signed at times *)
        let wa = rnd_width ctx and wb = 1 + rnd ctx 8 in
        let signed e w = if rnd ctx 2 = 0 then e else Printf.sprintf "(signed<%d>)(%s)" w e in
        cast (Printf.sprintf "%s %s %s" (signed (sub wa) wa) (pick ctx [ "/"; "%" ]) (signed (sub wb) wb))
    | 13 ->
        (* a wide concatenation of the operands *)
        cast (pick ctx [ "a :: b"; "b :: a :: b"; "a :: b :: a :: b :: a" ])
    | _ -> assert false

and gen_leaf ctx ~w =
  let cast e = Printf.sprintf "(unsigned<%d>)(%s)" w e in
  match rnd ctx 4 with
  | 0 -> cast "a"
  | 1 -> cast "b"
  | 2 when ctx.locals <> [] ->
      let n, _, _ = pick ctx ctx.locals in
      cast n
  | 3 when ctx.wide && rnd ctx 2 = 0 ->
      cast (Printf.sprintf "0x%x%08x%08x%08x" (rnd ctx 0xFF) (rnd ctx 0x3FFFFFFF) (rnd ctx 0x3FFFFFFF) (rnd ctx 0x3FFFFFFF))
  | _ -> cast (string_of_int (rnd ctx 0xFFFF))

(* a random behavior: local declarations, optional if, result write *)
let gen_behavior ?(wide = false) seed =
  let ctx = { rng = Random.State.make [| seed |]; wide; locals = [] } in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "unsigned<32> a = X[rs1]; unsigned<32> b = X[rs2];\n";
  (* a local's type, and an expression of it *)
  let decl w signed = Printf.sprintf "%s<%d>" (if signed then "signed" else "unsigned") w in
  let value ~depth w signed =
    let e = gen_expr ctx ~depth ~w in
    if signed then Printf.sprintf "(signed<%d>)(%s)" w e else e
  in
  if wide then begin
    (* a load of up to 16 bytes from the memory window *)
    let n = 1 + rnd ctx 16 in
    Buffer.add_string buf (Printf.sprintf "        unsigned<%d> vm = MEM[(a & 255) + %d : (a & 255)];\n" (8 * n) (n - 1));
    ctx.locals <- [ ("vm", 8 * n, false) ]
  end;
  let n_locals = 1 + rnd ctx 4 in
  for i = 0 to n_locals - 1 do
    let w = if wide then rnd_width ctx else 1 + rnd ctx 40 in
    let signed = wide && rnd ctx 2 = 0 in
    let name = Printf.sprintf "v%d" i in
    Buffer.add_string buf
      (Printf.sprintf "        %s %s = %s;\n" (decl w signed) name (value ~depth:2 w signed));
    ctx.locals <- (name, w, signed) :: ctx.locals
  done;
  if wide then begin
    (* a short loop updating a local *)
    let name, w, signed = pick ctx ctx.locals in
    Buffer.add_string buf
      (Printf.sprintf "        for (int i = 0; i < %d; i += 1) { %s = %s; }\n" (rnd ctx 4) name
         (value ~depth:1 w signed))
  end;
  (* sometimes mix in custom-register traffic *)
  let uses_cr = rnd ctx 2 = 0 in
  if uses_cr then begin
    Buffer.add_string buf "        unsigned<32> crv = CR;\n";
    ctx.locals <- ("crv", 32, false) :: ctx.locals
  end;
  (match rnd ctx 3 with
  | 0 -> ()
  | _ ->
      (* a conditional update of one local *)
      let name, w, signed = pick ctx ctx.locals in
      Buffer.add_string buf
        (Printf.sprintf "        if (%s > %s) { %s = %s; }\n" (gen_expr ctx ~depth:1 ~w:16)
           (gen_expr ctx ~depth:1 ~w:16) name (value ~depth:2 w signed)));
  if uses_cr then
    Buffer.add_string buf
      (Printf.sprintf "        CR = %s;\n" (gen_expr ctx ~depth:2 ~w:32));
  if wide then
    (* every bit of every local is observable: each is stored whole *)
    List.iteri
      (fun k (name, w, _) ->
        let n = (w + 7) / 8 in
        Buffer.add_string buf
          (Printf.sprintf "        MEM[%d:%d] = (unsigned<%d>)(%s);\n" ((32 * k) + 0x1000 + n - 1) ((32 * k) + 0x1000) (8 * n) name))
      ctx.locals;
  Buffer.add_string buf
    (Printf.sprintf "        if (rd != 0) X[rd] = %s;\n" (gen_expr ctx ~depth:2 ~w:32));
  Buffer.contents buf

let fuzz_source ?wide seed =
  Printf.sprintf
      {|
import "RV32I.core_desc"
InstructionSet FUZZ extends RV32I {
  architectural_state {
    register unsigned<32> CR;
  }
  instructions {
    FZ {
      encoding: 7'd9 :: rs2[4:0] :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b1111011;
      behavior: {
%s      }
    }
  }
}
|}
    (gen_behavior ?wide seed)

let compile_fuzz seed = Coredsl.compile ~target:"FUZZ" (fuzz_source seed)

let cores = Scaiev.Core_registry.datasheets ()

let prop_flow_matches_interp =
  QCheck.Test.make ~name:"random behaviors: RTL == interpreter" ~count:60
    (QCheck.triple QCheck.small_nat (QCheck.int_bound 0x3FFFFFFF) (QCheck.int_bound 0x3FFFFFFF))
    (fun (seed, va, vb) ->
      let tu = compile_fuzz seed in
      let core = List.nth cores (seed mod List.length cores) in
      let c = Longnail.Flow.compile core tu in
      let f = Option.get (Longnail.Flow.find_func c "FZ") in
      let ti = Option.get (Coredsl.Tast.find_tinstr tu "FZ") in
      let word = Coredsl.Interp.encode ti [ ("rs1", bv 1); ("rs2", bv 2); ("rd", bv 3) ] in
      (* golden *)
      let cr0 = bv ((va lxor vb) land 0x3FFFFFFF) in
      let st = Coredsl.Interp.create tu in
      Coredsl.Interp.write_regfile st "X" 1 (bv va);
      Coredsl.Interp.write_regfile st "X" 2 (bv vb);
      Coredsl.Interp.write_reg st "CR" cr0;
      Coredsl.Interp.exec_instr st ti ~instr_word:word;
      let expect = Coredsl.Interp.read_regfile st "X" 3 in
      let expect_cr = Coredsl.Interp.read_reg st "CR" in
      (* hardware *)
      let resp =
        Longnail.Cosim.run f
          {
            Longnail.Cosim.default_stimulus with
            instr_word = Some word;
            rs1 = Some (bv va);
            rs2 = Some (bv vb);
            custreg = (fun _ _ -> cr0);
          }
      in
      let rd_ok =
        match resp.rd_write with
        | Some (data, true) -> Bitvec.equal_value data expect
        | _ -> false
      in
      let cr_ok =
        match resp.custreg_writes with
        | [] -> Bitvec.equal_value expect_cr cr0
        | [ w ] -> w.cw_valid && Bitvec.equal_value w.cw_data expect_cr
        | _ -> false
      in
      rd_ok && cr_ok)

(* the generated sources also exercise the SystemVerilog emitter: emitted
   text must at least be non-empty and free of internal op names. Compiled
   with --verify-each, so the dialect-aware verifier also vets the IR
   after every optimization pass on every random behavior. *)
let prop_sv_clean =
  QCheck.Test.make ~name:"random behaviors emit clean SV" ~count:30 QCheck.small_nat (fun seed ->
      let tu = compile_fuzz seed in
      let request = Longnail.Flow.Request.make ~verify_each:true () in
      let c = Longnail.Flow.compile_request request Scaiev.Datasheet.vexriscv tu in
      let f = Option.get (Longnail.Flow.find_func c "FZ") in
      let sv = f.cf_sv in
      let contains needle =
        let nl = String.length needle and hl = String.length sv in
        let rec go i = i + nl <= hl && (String.sub sv i nl = needle || go (i + 1)) in
        go 0
      in
      String.length sv > 0 && contains "module FZ(" && (not (contains "lil.")) && contains "endmodule")

(* ---- mutated sources must fail with structured diagnostics ----

   Corrupt a known-good source in a targeted way (typos, deleted
   punctuation, bogus identifiers, truncation) and require that any
   resulting compile failure is a diagnostic — registered code, valid
   span where one is attached — rather than a bare exception escaping
   the front end or the flow. *)

let replace_first ~sub ~by s =
  let nl = String.length sub in
  let rec go i =
    if i + nl > String.length s then s
    else if String.sub s i nl = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + nl) (String.length s - i - nl)
    else go (i + 1)
  in
  go 0

let mutate rng src =
  let nth_char c n =
    (* index of the [n]-th occurrence of [c], if any *)
    let occ = ref [] in
    String.iteri (fun i ch -> if ch = c then occ := i :: !occ) src;
    match List.rev !occ with [] -> None | os -> Some (List.nth os (n mod List.length os))
  in
  let drop_char_at i = String.sub src 0 i ^ String.sub src (i + 1) (String.length src - i - 1) in
  match Random.State.int rng 8 with
  | 0 -> replace_first ~sub:"X[rd]" ~by:"X[zz]" src
  | 1 -> replace_first ~sub:"behavior" ~by:"behaviour" src
  | 2 -> (
      match nth_char '}' (Random.State.int rng 16) with
      | Some i -> drop_char_at i
      | None -> src)
  | 3 -> (
      match nth_char ';' (Random.State.int rng 16) with
      | Some i -> drop_char_at i
      | None -> src)
  | 4 -> replace_first ~sub:"unsigned<32> a" ~by:"unsigned<4> a" src
  | 5 ->
      let i = 1 + Random.State.int rng (String.length src - 1) in
      String.sub src 0 i ^ "$$" ^ String.sub src i (String.length src - i)
  | 6 -> replace_first ~sub:"X[rs1]" ~by:"X[undefined_reg]" src
  | _ ->
      (* truncate somewhere in the second half *)
      let half = String.length src / 2 in
      String.sub src 0 (half + Random.State.int rng half)

let structured (ds : Diag.t list) =
  ds <> []
  && List.for_all
       (fun (d : Diag.t) ->
         Diag.is_registered d.Diag.code
         && match d.Diag.span with Some sp -> Diag.span_is_valid sp | None -> true)
       ds

let prop_mutations_yield_diagnostics =
  QCheck.Test.make ~name:"mutated sources fail with structured diagnostics" ~count:80
    (QCheck.pair QCheck.small_nat QCheck.small_nat)
    (fun (seed, mseed) ->
      let rng = Random.State.make [| seed; mseed |] in
      let src = mutate rng (fuzz_source seed) in
      match Coredsl.compile_result ~file:"mutant.core_desc" ~target:"FUZZ" src with
      | Error ds -> structured ds
      | Ok tu -> (
          (* the mutation survived the front end: the back end must still
             either succeed or fail with a structured diagnostic — any
             bare Failure/Invalid_argument fails the property. Compiled
             with --verify-each so malformed IR out of any pass surfaces
             as E0512 rather than a downstream crash. *)
          try
            let request = Longnail.Flow.Request.make ~verify_each:true () in
            ignore (Longnail.Flow.compile_request request Scaiev.Datasheet.vexriscv tu);
            true
          with Diag.Fatal ds -> structured ds))

(* The wide mode through the CoreDSL front end only: the staged
   interpreter must agree with its tree-walking oracle on every register,
   memory, pc_written and the runtime error each behaviour raises. *)
let prop_wide_staged_matches_oracle =
  QCheck.Test.make ~name:"random wide behaviors: staged == oracle" ~count:150 QCheck.small_nat
    (fun seed ->
      let tu = Coredsl.compile ~target:"FUZZ" (fuzz_source ~wide:true seed) in
      let ti = Option.get (Coredsl.Tast.find_tinstr tu "FZ") in
      let instr_word = Coredsl.Interp.encode ti [ ("rs1", bv 1); ("rs2", bv 2); ("rd", bv 3) ] in
      Interp_diff.instr_agrees tu seed ~port:false ti ~instr_word)

let () =
  Alcotest.run "fuzz-flow"
    [
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_flow_matches_interp;
            prop_sv_clean;
            prop_mutations_yield_diagnostics;
            prop_wide_staged_matches_oracle;
          ] );
    ]
