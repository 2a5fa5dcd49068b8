(* Differential execution of CoreDSL bodies: the staged evaluator
   (Coredsl.Interp) against its tree-walking oracle
   (Oracle.Coredsl_interp). Both run on states built alike from one seed,
   each body twice in a row, optionally through a logging memory port; the
   outcomes must agree on every register, every memory element,
   [pc_written], the port traffic and the raised error (a Runtime_error's
   location and message). Shared by test_coredsl and test_fuzz_flow. *)

open Coredsl
module Bn = Bitvec.Bn

(* a w-bit pattern: zero, a small value (an address in the memory
   window below) or uniform bits *)
let rand_pattern rng w =
  let rec bits acc k = if k >= w then acc else bits (Bn.add (Bn.shift_left acc 30) (Bn.of_int (Random.State.bits rng))) (k + 30) in
  match Random.State.int rng 4 with
  | 0 -> Bn.zero
  | 1 -> Bn.of_int (Random.State.int rng 256)
  | _ -> Bn.mod_pow2 (bits Bn.zero 0) w

let rand_value rng (ty : Bitvec.ty) =
  Bitvec.cast ty (Bitvec.of_bn (Bitvec.unsigned_ty ty.width) (rand_pattern rng ty.width))

(* random registers and a random memory window [0, 256) in every space *)
let random_state tu seed =
  let rng = Random.State.make [| seed |] in
  let st = Interp.create tu in
  List.iter
    (fun (r : Elaborate.reg) ->
      let a = Interp.reg_array st r.rname in
      Array.iteri (fun i v -> a.(i) <- rand_value rng (Bitvec.typ v)) a)
    tu.Tast.elab.regs;
  List.iter
    (fun (s : Elaborate.addr_space) ->
      for a = 0 to 255 do
        if Random.State.bool rng then Interp.write_mem_elem st s.sname a (rand_value rng s.elem_ty)
      done)
    tu.elab.spaces;
  st

(* a port over its own write buffer on top of the state's memory,
   logging every access in order *)
let logging_port st =
  let log = ref [] and buffer = Hashtbl.create 16 in
  let read_elem space a =
    let v = match Hashtbl.find_opt buffer (space, a) with Some v -> v | None -> Interp.read_mem_elem st space a in
    log := `Read (space, a, v) :: !log;
    v
  in
  let write_elem space a v =
    log := `Write (space, a, v) :: !log;
    Hashtbl.replace buffer (space, a) v
  in
  ({ Interp.read_elem; write_elem }, log)

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* run [exec] twice on a fresh random state; the outcome as a comparable value *)
let outcome tu seed ~port exec =
  let st = random_state tu seed in
  let mem, log = if port then (let p, l = logging_port st in (Some p, l)) else (None, ref []) in
  let error =
    match exec mem st; exec mem st with
    | () -> None
    | exception Interp.Runtime_error (loc, m) -> Some (`Runtime (loc, m))
    | exception e -> Some (`Other (Printexc.to_string e))
  in
  let regs = List.map (fun (name, a) -> (name, Array.to_list a)) (sorted st.regs) in
  let mems = List.map (fun (name, t) -> (name, sorted t)) (sorted st.mems) in
  (error, regs, mems, st.pc_written, List.rev !log)

(* [staged] and [oracle] agree from the state [seed] builds; a
   disagreement is reported on stderr under [what] *)
let agree tu seed ~port ~what ~staged ~oracle =
  let ((e1, r1, m1, p1, l1) as a) = outcome tu seed ~port staged
  and ((e2, r2, m2, p2, l2) as b) = outcome tu seed ~port oracle in
  a = b
  || begin
       let differs = List.filter_map (fun (d, n) -> if d then Some n else None) in
       Printf.eprintf "%s (seed %d, port %b): staged and oracle differ on %s\n%!" what seed port
         (String.concat ", "
            (differs
               [ (e1 <> e2, "the error"); (r1 <> r2, "registers"); (m1 <> m2, "memory");
                 (p1 <> p2, "pc_written"); (l1 <> l2, "port traffic") ]));
       (match (e1, e2) with
       | Some (`Runtime (_, m)), _ | _, Some (`Runtime (_, m)) | Some (`Other m), _ | _, Some (`Other m) ->
           Printf.eprintf "  error: %s\n%!" m
       | None, None -> ());
       false
     end

let instr_agrees tu seed ~port (ti : Tast.tinstr) ~instr_word =
  agree tu seed ~port ~what:ti.ti_name
    ~staged:(fun mem st -> Interp.exec_instr ?mem st ti ~instr_word)
    ~oracle:(fun mem st -> Oracle.Coredsl_interp.exec_instr ?mem st ti ~instr_word)

let always_agrees tu seed (ta : Tast.talways) =
  agree tu seed ~port:false ~what:ta.ta_name
    ~staged:(fun _ st -> Interp.exec_always st ta)
    ~oracle:(fun _ st -> Oracle.Coredsl_interp.exec_always st ta)
