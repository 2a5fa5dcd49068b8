(** Additional ISAXes beyond the paper's Table 3 benchmark set, exercising
   hardware patterns the benchmark ISAXes do not cover:

   - bitrev: a pure-wiring datapath (bit reversal),
   - crc32b: a deep serial xor/mux chain (bit-serial CRC-32 over one byte),
   - clz: priority logic (count leading zeros).

   Only the extra tests and the `extra` bench target use them; the CLI's
   [bundled] command and the serve daemon know the Table 3 set
   ({!Registry}) only. *)

val bitrev : string
val crc32b : string
val clz : string
type entry = {
  name : string;
  target : string;
  instr : string;
  source : string;
}
val all : entry list
val find : string -> entry option
val compile : entry -> Coredsl.Tast.tunit
