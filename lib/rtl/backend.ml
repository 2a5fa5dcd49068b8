(* The emission-backend axis: every backend turns a netlist into HDL text
   through the shared {!Emit_core} layer, so outputs differ only in
   dialect. Mirrors the {!Engine} axis for simulation. *)

type kind = Sv | V2001

let to_string = function Sv -> "sv" | V2001 -> "v2001"
let all_kinds = [ ("sv", Sv); ("v2001", V2001) ]

let of_string s = Diag.Choice.parse ~what:"emission backend" ~choices:all_kinds s

(* Output file extension: .sv for SystemVerilog, .v for Verilog-2001. *)
let file_ext = function Sv -> "sv" | V2001 -> "v"

let emit kind (m : Netlist.t) : string =
  match kind with Sv -> Sv_emit.emit m | V2001 -> V2001_emit.emit m
