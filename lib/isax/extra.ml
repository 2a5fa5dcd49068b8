(* Additional ISAXes beyond the paper's Table 3 benchmark set, exercising
   hardware patterns the benchmark ISAXes do not cover:

   - bitrev: a pure-wiring datapath (bit reversal),
   - crc32b: a deep serial xor/mux chain (bit-serial CRC-32 over one byte),
   - clz: priority logic (count leading zeros).

   Only the extra tests and the `extra` bench target use them; the CLI's
   [bundled] command and the serve daemon know the Table 3 set
   ({!Registry}) only. *)

let bitrev =
  {|
import "RV32I.core_desc"

InstructionSet X_BITREV extends RV32I {
  instructions {
    BITREV {
      encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<32> r = 0;
        for (int i = 0; i < 32; i += 1) {
          r = r[30:0] :: X[rs1][i];
        }
        if (rd != 0) X[rd] = r;
      }
    }
  }
}
|}

let crc32b =
  {|
import "RV32I.core_desc"

InstructionSet X_CRC32 extends RV32I {
  instructions {
    CRC32B {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<32> crc = (unsigned<32>)(X[rs1] ^ (unsigned<32>)X[rs2][7:0]);
        for (int i = 0; i < 8; i += 1) {
          if (crc[0] == 1) {
            crc = (unsigned<32>)((crc >> 1) ^ 0xEDB88320);
          } else {
            crc = (unsigned<32>)(crc >> 1);
          }
        }
        if (rd != 0) X[rd] = crc;
      }
    }
  }
}
|}

let clz =
  {|
import "RV32I.core_desc"

InstructionSet X_CLZ extends RV32I {
  instructions {
    CLZ {
      encoding: 12'd0 :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<6> n = 0;
        unsigned<1> found = 0;
        for (int i = 31; i >= 0; i -= 1) {
          if (found == 0) {
            if (X[rs1][i] == 1) {
              found = 1;
            } else {
              n = (unsigned<6>)(n + 1);
            }
          }
        }
        if (rd != 0) X[rd] = (unsigned<32>)n;
      }
    }
  }
}
|}

type entry = { name : string; target : string; instr : string; source : string }

let all =
  [
    { name = "bitrev"; target = "X_BITREV"; instr = "BITREV"; source = bitrev };
    { name = "crc32b"; target = "X_CRC32"; instr = "CRC32B"; source = crc32b };
    { name = "clz"; target = "X_CLZ"; instr = "CLZ"; source = clz };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let compile (e : entry) = Coredsl.compile ~provider:Registry.provider ~file:e.name ~target:e.target e.source
