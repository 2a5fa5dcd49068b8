(* Tests for the content-addressed compilation sessions (lib/cache +
   Longnail.Flow sessions): fingerprint determinism and sensitivity,
   store semantics, and the acceptance gates of docs/CACHING.md —
   recompiles served from cache and byte-identical artifacts with and
   without caching. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- the generic store ---- *)

let test_store_hit_miss () =
  let st = Cache.Store.create ~name:"t" () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  check_int "miss computes" 42 (Cache.Store.find_or_add st "k" compute);
  check_int "hit returns" 42 (Cache.Store.find_or_add st "k" compute);
  check_int "computed once" 1 !calls;
  let s = Cache.Store.stats st in
  check_int "hits" 1 s.hits;
  check_int "misses" 1 s.misses;
  check_int "stores" 1 s.stores;
  check_int "length" 1 (Cache.Store.length st);
  check_bool "mem" true (Cache.Store.mem st "k");
  check_bool "not mem" false (Cache.Store.mem st "other")

let test_store_raise_not_stored () =
  let st = Cache.Store.create ~name:"t" () in
  (try ignore (Cache.Store.find_or_add st "k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_bool "nothing stored on raise" false (Cache.Store.mem st "k");
  check_int "still a miss" 1 (Cache.Store.stats st).misses;
  check_int "no store" 0 (Cache.Store.stats st).stores

let test_store_lru_eviction () =
  let st = Cache.Store.create ~capacity:2 ~name:"t" () in
  ignore (Cache.Store.find_or_add st "a" (fun () -> 1));
  ignore (Cache.Store.find_or_add st "b" (fun () -> 2));
  ignore (Cache.Store.find_or_add st "a" (fun () -> 1));
  (* "b" is now least recently used; inserting "c" must evict it *)
  ignore (Cache.Store.find_or_add st "c" (fun () -> 3));
  check_bool "a survives" true (Cache.Store.mem st "a");
  check_bool "b evicted" false (Cache.Store.mem st "b");
  check_bool "c present" true (Cache.Store.mem st "c");
  check_int "one eviction" 1 (Cache.Store.stats st).evictions;
  check_int "at capacity" 2 (Cache.Store.length st)

let test_store_disabled () =
  let st = Cache.Store.create ~capacity:0 ~name:"t" () in
  let calls = ref 0 in
  let compute () = incr calls; 7 in
  ignore (Cache.Store.find_or_add st "k" compute);
  ignore (Cache.Store.find_or_add st "k" compute);
  check_int "always recomputes" 2 !calls;
  check_int "never stores" 0 (Cache.Store.stats st).stores;
  check_int "never hits" 0 (Cache.Store.stats st).hits;
  check_int "empty" 0 (Cache.Store.length st)

let test_store_obs_counters () =
  let st = Cache.Store.create ~name:"t" () in
  let obs = Obs.create ~name:"test" () in
  Obs.span obs "lookup" (fun sobs ->
      ignore (Cache.Store.find_or_add st ~obs:sobs "k" (fun () -> 1));
      ignore (Cache.Store.find_or_add st ~obs:sobs "k" (fun () -> 1)));
  Obs.finish obs;
  let sp = List.hd (Obs.find_spans (Obs.root obs) "lookup") in
  check_int "cache.hit" 1 (Option.get (Obs.get_int sp "cache.hit"));
  check_int "cache.miss" 1 (Option.get (Obs.get_int sp "cache.miss"));
  check_int "cache.store" 1 (Option.get (Obs.get_int sp "cache.store"))

(* ---- unit keys and fingerprints ---- *)

let unit_digest (tu : Coredsl.Tast.tunit) = tu.elab.digest

(* two independent elaborations of the same source (fresh typed-unit
   values) must agree *)
let test_unit_digest_deterministic () =
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let d1 = unit_digest (Isax.Registry.compile e) in
      let d2 = unit_digest (Isax.Registry.compile e) in
      check_str (e.name ^ " deterministic") d1 d2)
    Isax.Registry.all

(* the main file's name must not contribute: the same source elaborated
   under a different file name keys identically *)
let test_unit_digest_ignores_file_name () =
  let e = List.hd Isax.Registry.all in
  let tu1 = Coredsl.compile ~provider:Isax.Registry.provider ~file:"a.core_desc" ~target:e.target e.source in
  let tu2 = Coredsl.compile ~provider:Isax.Registry.provider ~file:"b.core_desc" ~target:e.target e.source in
  check_str "file name irrelevant" (unit_digest tu1) (unit_digest tu2)

let tiny_src constant =
  Printf.sprintf
    {|import "RV32I.core_desc"

      InstructionSet Tiny extends RV32I {
        instructions {
          TINY {
            encoding: imm[11:0] :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0001011;
            behavior: { if (rd != 0) X[rd] = (unsigned<32>)(X[rs1] + %s); }
          }
        }
      }|}
    constant

(* any edit to the source must change the key *)
let test_unit_digest_source_sensitivity () =
  let digest constant =
    unit_digest
      (Coredsl.compile ~provider:Isax.Registry.provider ~file:"tiny.core_desc" ~target:"Tiny"
         (tiny_src constant))
  in
  check_str "identical source agrees" (digest "1") (digest "1");
  check_bool "edited literal differs" false (digest "1" = digest "2")

(* an import's text is part of the key: the same main source over an
   imported set with a different constant keys differently *)
let test_unit_digest_import_sensitivity () =
  let main =
    {|import "konst.core_desc"

      InstructionSet Uses extends Konst {
        instructions {
          ADDK {
            encoding: 12'd0 :: rs1[4:0] :: 3'b010 :: rd[4:0] :: 7'b0001011;
            behavior: { if (rd != 0) X[rd] = (unsigned<32>)(X[rs1] + K); }
          }
        }
      }|}
  in
  let digest k =
    let imported =
      Printf.sprintf
        {|import "RV32I.core_desc"

          InstructionSet Konst extends RV32I {
            architectural_state { unsigned int K = %d; }
          }|}
        k
    in
    let provider = function "konst.core_desc" -> Some imported | _ -> None in
    unit_digest (Coredsl.compile ~provider ~file:"uses.core_desc" ~target:"Uses" main)
  in
  check_str "identical import agrees" (digest 1) (digest 1);
  check_bool "edited import differs" false (digest 1 = digest 2)

(* golden digests: any unintended change to the key derivation (or to a
   bundled ISAX or the RV32I source) shows up as a diff here. Regenerate
   when the change is deliberate. *)
let test_unit_digest_golden () =
  let goldens =
    [
      ("autoinc", "4a6f3f8ef769734d69a65195fe7a6f52");
      ("dotprod", "79bb183d61ff1c31ad42ff80096815af");
      ("ijmp", "ec0943da392c39960bc01648fa583e51");
      ("sbox", "56c09b9947fa011b8ab613a79b8a06d3");
      ("sparkle", "e6ff94cd9a6cb20ebc55c2a93ff6cf38");
      ("sqrt_tightly", "a072714e05138a80026f34826c94c73a");
      ("sqrt_decoupled", "13330f7cbbc66a5d8de1eafe53b46c4a");
      ("zol", "08d850a8d31be9eb30f66560c902bc1f");
      ("chksum", "7bea79f6eb69d7ec99f325a527d17b06");
      ("autoinc+zol", "4eeeeeadbab5c130669f7a1d06541f61");
    ]
  in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      check_str (e.name ^ " golden digest") (List.assoc e.name goldens)
        (unit_digest (Isax.Registry.compile e)))
    Isax.Registry.all

let test_datasheet_fp_distinct () =
  (* every registered core, outlook included: a colliding fingerprint
     would let one core's artifacts serve another's compiles *)
  let fps =
    List.map Cache.Fp.datasheet (Scaiev.Core_registry.datasheets ~include_outlook:true ())
  in
  let distinct = List.sort_uniq compare fps in
  check_int "all registered cores fingerprint distinctly" (List.length fps)
    (List.length distinct);
  check_str "deterministic"
    (Cache.Fp.datasheet Scaiev.Datasheet.vexriscv)
    (Cache.Fp.datasheet Scaiev.Datasheet.vexriscv)

(* The registry refactor must not move a single artifact byte for the
   four paper cores: one digest per core over every bundled ISAX's
   emitted SystemVerilog + SCAIE-V YAML, pinned to the values produced
   by the pre-registry tree. (mriscv is deliberately not pinned here —
   its datasheet is ours to tune — but the paper cores are contracts.) *)
let paper_core_golden =
  [
    ("ORCA", "46e53df7617a651544ed5abc3090264a");
    ("Piccolo", "4a0e19ddd852ffb8cf2f10a27ab71f06");
    ("PicoRV32", "956a3788cf0eeaa47afc4750eb150319");
    ("VexRiscv", "8a326db4713dcbf06bfe82ef764d24c1");
  ]

let test_paper_core_artifacts_golden () =
  let session = Longnail.Flow.create_session () in
  let request = Longnail.Flow.Request.make ~session () in
  List.iter
    (fun (core : Scaiev.Datasheet.t) ->
      let buf = Buffer.create (1 lsl 16) in
      List.iter
        (fun (e : Isax.Registry.entry) ->
          let c = Longnail.Flow.compile_request request core (Isax.Registry.compile e) in
          Buffer.add_string buf e.name;
          List.iter
            (fun (f : Longnail.Flow.compiled_functionality) ->
              Buffer.add_string buf f.cf_name;
              Buffer.add_string buf f.cf_sv)
            c.funcs;
          Buffer.add_string buf c.config_yaml)
        Isax.Registry.all;
      check_str
        (core.core_name ^ " artifacts byte-identical")
        (List.assoc core.core_name paper_core_golden)
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    (Scaiev.Core_registry.paper_datasheets ())

(* ---- sessions ---- *)

(* recompiling an identical target within a session is served entirely
   from the target store: the physically identical value comes back and
   no per-functionality work re-runs *)
let test_session_recompile_from_cache () =
  let session = Longnail.Flow.create_session () in
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let core = Scaiev.Datasheet.vexriscv in
  let request = Longnail.Flow.Request.make ~session () in
  let c1 = Longnail.Flow.compile ~request core tu in
  let c2 = Longnail.Flow.compile ~request core tu in
  check_bool "identical artifact returned" true (c1 == c2);
  let stats = Longnail.Flow.session_stats session in
  check_int "target hit" 1 (List.assoc "target" stats).Cache.Store.hits;
  check_int "ir computed once" 1 (List.assoc "ir" stats).Cache.Store.misses;
  check_int "ir not re-entered" 0 (List.assoc "ir" stats).Cache.Store.hits;
  check_int "sched computed once" 1 (List.assoc "sched" stats).Cache.Store.misses

(* a re-parsed unit (same source, fresh typed-unit value) hits the same
   artifacts: keys are content-addressed, not identity-addressed *)
let test_session_content_addressed () =
  let session = Longnail.Flow.create_session () in
  let core = Scaiev.Datasheet.vexriscv in
  let request = Longnail.Flow.Request.make ~session () in
  let c1 = Longnail.Flow.compile ~request core (Isax.Registry.compile_by_name "dotprod") in
  let c2 = Longnail.Flow.compile ~request core (Isax.Registry.compile_by_name "dotprod") in
  check_bool "re-parse still hits" true (c1 == c2)

(* cached and uncached compiles must produce byte-identical SystemVerilog
   and SCAIE-V YAML for every bundled ISAX x core target *)
let test_cached_equals_uncached_everywhere () =
  let session = Longnail.Flow.create_session () in
  let request = Longnail.Flow.Request.make ~session () in
  List.iter
    (fun (e : Isax.Registry.entry) ->
      List.iter
        (fun core ->
          (* warm the session with an independently parsed unit... *)
          ignore (Longnail.Flow.compile ~request core (Isax.Registry.compile e));
          (* ...then serve this compile from cache and compare against a
             sessionless (always-cold) compile of a fresh parse *)
          let cached = Longnail.Flow.compile ~request core (Isax.Registry.compile e) in
          let cold = Longnail.Flow.compile core (Isax.Registry.compile e) in
          let ctx = Printf.sprintf "%s/%s" e.name core.Scaiev.Datasheet.core_name in
          check_str (ctx ^ " config yaml") cold.config_yaml cached.config_yaml;
          check_int (ctx ^ " func count") (List.length cold.funcs) (List.length cached.funcs);
          List.iter2
            (fun (a : Longnail.Flow.compiled_functionality)
                 (b : Longnail.Flow.compiled_functionality) ->
              check_str (ctx ^ "/" ^ a.cf_name ^ " sv") a.cf_sv b.cf_sv)
            cold.funcs cached.funcs)
        (Scaiev.Core_registry.datasheets ()))
    Isax.Registry.all

(* knob granularity: the hazard-handling ablation shares every schedule
   and netlist and only re-runs emission and the adapter *)
let test_session_hazard_shares_funcs () =
  let session = Longnail.Flow.create_session () in
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let core = Scaiev.Datasheet.vexriscv in
  let c1 = Longnail.Flow.compile ~request:(Longnail.Flow.Request.make ~session ()) core tu in
  let c2 =
    Longnail.Flow.compile
      ~request:
        (Longnail.Flow.Request.make ~session
           ~knobs:(Longnail.Flow.knobs ~hazard_handling:false ())
           ())
      core tu
  in
  check_bool "distinct targets" true (c1 != c2);
  let stats = Longnail.Flow.session_stats session in
  check_int "no target hit" 0 (List.assoc "target" stats).Cache.Store.hits;
  let sched = List.assoc "sched" stats in
  check_bool "sched artifacts shared" true (sched.Cache.Store.hits > 0);
  List.iter2
    (fun (a : Longnail.Flow.compiled_functionality) (b : Longnail.Flow.compiled_functionality) ->
      check_bool (a.cf_name ^ " schedule and netlist shared") true
        (a.cf_built == b.cf_built && a.cf_hw == b.cf_hw);
      Alcotest.(check string) (a.cf_name ^ " same HDL") a.cf_sv b.cf_sv)
    c1.funcs c2.funcs

(* distinct knobs must not collide *)
let test_session_knob_isolation () =
  let session = Longnail.Flow.create_session () in
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let core = Scaiev.Datasheet.vexriscv in
  let req knobs = Longnail.Flow.Request.make ~session ~knobs () in
  let a =
    Longnail.Flow.compile ~request:(req (Longnail.Flow.knobs ~scheduler:Longnail.Sched_build.Ilp ())) core tu
  in
  let b =
    Longnail.Flow.compile ~request:(req (Longnail.Flow.knobs ~scheduler:Longnail.Sched_build.Asap ())) core tu
  in
  check_bool "different schedulers, different artifacts" true (a != b);
  let c = Longnail.Flow.compile ~request:(req (Longnail.Flow.knobs ~cycle_time:7.0 ())) core tu in
  check_bool "different cycle time, different artifact" true (a != c && b != c)

(* A long-lived session (the serve daemon's) must stay bounded: once the
   capacity-2 stores and the 32-entry fingerprint memos are full, further
   fresh sources replace entries instead of adding them. Sparkle variants
   differ only in their round constant. *)
let test_session_bounded () =
  let sparkle = Isax.Registry.find_exn "sparkle" in
  let variant k =
    let needle = "0xb7e15162" and src = sparkle.source in
    let nl = String.length needle and sl = String.length src in
    let b = Buffer.create sl in
    let rec go i =
      if i + nl > sl then Buffer.add_substring b src i (sl - i)
      else if String.sub src i nl = needle then begin
        Buffer.add_string b (Printf.sprintf "0x%08x" k);
        go (i + nl)
      end
      else begin
        Buffer.add_char b src.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents b
  in
  let session = Longnail.Flow.create_session ~capacity:2 () in
  let request = Longnail.Flow.Request.make ~session () in
  let words = Array.make 81 0 in
  for k = 1 to 80 do
    let tu =
      Coredsl.compile ~provider:Isax.Registry.provider ~target:sparkle.target (variant k)
    in
    ignore (Longnail.Flow.compile_request request Scaiev.Datasheet.vexriscv tu);
    words.(k) <- Obj.reachable_words (Obj.repr session)
  done;
  check_bool
    (Printf.sprintf "session words after 80 sources (%d) <= after 40 (%d)" words.(80) words.(40))
    true
    (words.(80) <= words.(40))

(* the emission backend is a target-key knob: a switch gets a fresh
   target with the other dialect's text, but re-emits only — schedules
   and netlists come from the sched store, and the Verilog-2001 text is
   exactly the backend run over the first compile's netlists *)
let test_session_backend_switch_emits_only () =
  let session = Longnail.Flow.create_session () in
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let core = Scaiev.Datasheet.vexriscv in
  let sv = Longnail.Flow.compile ~request:(Longnail.Flow.Request.make ~session ()) core tu in
  let obs = Obs.create ~name:"v2001" () in
  let v =
    Longnail.Flow.compile
      ~request:
        (Longnail.Flow.Request.make ~session ~obs
           ~knobs:(Longnail.Flow.knobs ~backend:Rtl.Backend.V2001 ())
           ())
      core tu
  in
  Obs.finish obs;
  check_bool "distinct compiled target" true (sv != v);
  let text (t : Longnail.Flow.compiled) =
    String.concat "" (List.map (fun (f : Longnail.Flow.compiled_functionality) -> f.cf_sv) t.funcs)
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "sv registers use always_ff" true (contains (text sv) "always_ff");
  check_bool "v2001 registers avoid always_ff" true (not (contains (text v) "always_ff"));
  check_bool "v2001 registers use plain always" true
    (contains (text v) "always @(posedge clk)");
  let root = Obs.root obs in
  let n_funcs = List.length sv.funcs in
  check_bool "has functionalities" true (n_funcs > 0);
  check_int "no schedule spans" 0 (List.length (Obs.find_spans root "schedule"));
  check_int "no hwgen spans" 0 (List.length (Obs.find_spans root "hwgen"));
  let boundaries = Obs.find_spans root "sched_artifact" in
  check_int "one sched boundary per functionality" n_funcs (List.length boundaries);
  List.iter
    (fun sp -> check_int "sched_artifact hit" 1 (Option.value (Obs.get_int sp "cache.hit") ~default:0))
    boundaries;
  check_int "one emit per functionality" n_funcs (List.length (Obs.find_spans root "sv_emit"));
  List.iter2
    (fun (a : Longnail.Flow.compiled_functionality) (b : Longnail.Flow.compiled_functionality) ->
      check_bool (a.cf_name ^ " netlist shared") true (a.cf_hw == b.cf_hw);
      Alcotest.(check string)
        (a.cf_name ^ " v2001 text")
        (Rtl.Backend.emit Rtl.Backend.V2001 a.cf_hw.Longnail.Hwgen.netlist)
        b.cf_sv)
    sv.funcs v.funcs

let test_compile_many_shares () =
  let session = Longnail.Flow.create_session () in
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let cores = [ Scaiev.Datasheet.vexriscv; Scaiev.Datasheet.orca ] in
  let results =
    Longnail.Flow.compile_many
      ~request:(Longnail.Flow.Request.make ~session ())
      (List.map (fun core -> (core, tu)) cores)
  in
  check_int "one compiled per target" 2 (List.length results);
  let stats = Longnail.Flow.session_stats session in
  let ir = List.assoc "ir" stats in
  (* the unit's functionality lowers once; the second core re-uses it *)
  check_int "ir computed once" 1 ir.Cache.Store.misses;
  check_bool "ir shared across cores" true (ir.Cache.Store.hits > 0)

let test_frontend_memo () =
  let session = Longnail.Flow.create_session () in
  let calls = ref 0 in
  let parse () = incr calls; Isax.Registry.compile_by_name "dotprod" in
  let tu1 = Longnail.Flow.frontend session ~key:"k1" parse in
  let tu2 = Longnail.Flow.frontend session ~key:"k1" parse in
  check_bool "same unit back" true (tu1 == tu2);
  check_int "parsed once" 1 !calls;
  ignore (Longnail.Flow.frontend session ~key:"k2" parse);
  check_int "new key parses" 2 !calls

(* ---- the on-disk artifact store ---- *)

let tmpdir () =
  let d = Filename.temp_file "longnail-disk" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let art_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".art")

let test_disk_roundtrip_across_processes () =
  let root = tmpdir () in
  let d1 = Cache.Disk.open_store root in
  check_bool "cold miss" true (Cache.Disk.find d1 "k1" = None);
  Cache.Disk.store d1 "k1" "payload-one";
  check_bool "same handle hit" true (Cache.Disk.find d1 "k1" = Some "payload-one");
  (* a second handle on the same directory models a fresh process *)
  let d2 = Cache.Disk.open_store root in
  check_bool "fresh process hit" true (Cache.Disk.find d2 "k1" = Some "payload-one");
  check_int "fresh process entries" 1 (Cache.Disk.length d2);
  let s = Cache.Disk.stats d2 in
  check_int "fresh hits" 1 s.Cache.Disk.hits;
  check_int "fresh misses" 0 s.Cache.Disk.misses

let test_disk_eviction_respects_budget () =
  let payload = String.make 1024 'x' in
  (* room for roughly two 1 KiB entries plus headers *)
  let root = tmpdir () in
  let d = Cache.Disk.open_store ~budget_bytes:2600 root in
  Cache.Disk.store d "a" payload;
  Cache.Disk.store d "b" payload;
  Cache.Disk.store d "c" payload;
  let s = Cache.Disk.stats d in
  check_bool "bytes within budget" true (s.Cache.Disk.bytes <= 2600);
  check_bool "something evicted" true (s.Cache.Disk.evictions > 0);
  (* the entry just written always survives its own store *)
  check_bool "latest entry survives" true (Cache.Disk.find d "c" = Some payload);
  (* a reopened store sees the same accounting *)
  let d2 = Cache.Disk.open_store ~budget_bytes:2600 root in
  check_int "reopen entries" (Cache.Disk.length d) (Cache.Disk.length d2)

let test_disk_no_partial_files () =
  let root = tmpdir () in
  let d = Cache.Disk.open_store root in
  for i = 0 to 19 do
    Cache.Disk.store d (Printf.sprintf "key%d" i) (String.make 4096 (Char.chr (65 + i)))
  done;
  let stray =
    Sys.readdir (Cache.Disk.dir d) |> Array.to_list
    |> List.filter (fun f -> not (Filename.check_suffix f ".art"))
  in
  Alcotest.(check (list string)) "no temp/partial files" [] stray;
  check_int "all entries published" 20 (List.length (art_files (Cache.Disk.dir d)))

let rewrite_entry_file path f =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f contents);
  close_out oc

let test_disk_version_mismatch_invalidates () =
  let root = tmpdir () in
  let d = Cache.Disk.open_store root in
  Cache.Disk.store d "vk" "vpayload";
  let dir = Cache.Disk.dir d in
  let file = Filename.concat dir (List.hd (art_files dir)) in
  (* forge a future format version in the header: the entry must be
     rejected and healed, never misread *)
  rewrite_entry_file file (fun s ->
      let nl = String.index s '\n' in
      Printf.sprintf "longnail-artifact %d%s" (Cache.Disk.format_version + 1)
        (String.sub s nl (String.length s - nl)));
  check_bool "wrong version reads as miss" true (Cache.Disk.find d "vk" = None);
  let s = Cache.Disk.stats d in
  check_int "counted corrupt" 1 s.Cache.Disk.corrupt;
  check_int "evicted from disk" 0 (List.length (art_files dir));
  (* the store heals: a fresh write round-trips again *)
  Cache.Disk.store d "vk" "vpayload2";
  check_bool "healed" true (Cache.Disk.find d "vk" = Some "vpayload2")

let test_disk_corrupt_payload_evicted () =
  let root = tmpdir () in
  let d = Cache.Disk.open_store root in
  Cache.Disk.store d "ck" "corrupt-me-please";
  let dir = Cache.Disk.dir d in
  let file = Filename.concat dir (List.hd (art_files dir)) in
  rewrite_entry_file file (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s - 3 in
      Bytes.set b i (if Bytes.get b i = 'z' then 'y' else 'z');
      Bytes.to_string b);
  check_bool "checksum mismatch reads as miss" true (Cache.Disk.find d "ck" = None);
  check_int "counted corrupt" 1 (Cache.Disk.stats d).Cache.Disk.corrupt;
  check_int "evicted" 0 (List.length (art_files dir));
  (* truncation is also survived *)
  Cache.Disk.store d "ck" "corrupt-me-please";
  let file = Filename.concat dir (List.hd (art_files dir)) in
  rewrite_entry_file file (fun s -> String.sub s 0 (String.length s / 2));
  check_bool "truncated reads as miss" true (Cache.Disk.find d "ck" = None);
  check_int "truncation counted corrupt" 2 (Cache.Disk.stats d).Cache.Disk.corrupt

let test_disk_concurrent_writers () =
  let root = tmpdir () in
  let d = Cache.Disk.open_store root in
  let n = 50 in
  let writer salt () =
    let d' = Cache.Disk.open_store root in
    for i = 0 to n - 1 do
      (* overlapping key space, identical content per key: the
         cross-process reality of content-addressed artifacts *)
      let key = Printf.sprintf "shared%d" i in
      Cache.Disk.store d' key (Printf.sprintf "payload-%d" i);
      ignore (Cache.Disk.find d' key);
      ignore salt
    done
  in
  let d1 = Domain.spawn (writer 1) and d2 = Domain.spawn (writer 2) in
  Domain.join d1;
  Domain.join d2;
  (* every entry must read back valid — no torn writes *)
  for i = 0 to n - 1 do
    let key = Printf.sprintf "shared%d" i in
    check_bool key true (Cache.Disk.find d key = Some (Printf.sprintf "payload-%d" i))
  done;
  check_int "no corruption seen" 0 (Cache.Disk.stats d).Cache.Disk.corrupt

(* the cross-process warm compile over the whole bundled registry on
   VexRiscv: a second "process" (a fresh session on the same store)
   answers every target from disk with the cold run's bytes and runs no
   compile stage at all *)
let test_disk_backed_session_outputs () =
  let root = tmpdir () in
  let targets =
    List.map
      (fun e -> (Scaiev.Datasheet.vexriscv, Isax.Registry.compile e))
      Isax.Registry.all
  in
  let n = List.length targets in
  let compile_with_fresh_session ?obs () =
    let session = Longnail.Flow.create_session ~disk:(Cache.Disk.open_store root) () in
    let request = Longnail.Flow.Request.make ~session ?obs () in
    let outs = Longnail.Flow.compile_many_outputs ~request targets in
    (outs, Cache.Disk.stats (Option.get (Longnail.Flow.session_disk session)))
  in
  let cold, cold_st = compile_with_fresh_session () in
  let obs = Obs.create ~name:"disk-warm" () in
  let warm, warm_st = compile_with_fresh_session ~obs () in
  Obs.finish obs;
  check_int "cold stores" n cold_st.Cache.Disk.stores;
  check_int "warm disk hits" n warm_st.Cache.Disk.hits;
  check_int "warm misses" 0 warm_st.Cache.Disk.misses;
  List.iter
    (fun stage ->
      check_int ("warm " ^ stage ^ " never runs") 0
        (List.length (Obs.find_spans (Obs.root obs) stage)))
    Longnail.Flow.stage_names;
  List.iter2
    (fun (cold : Longnail.Flow.outputs) (warm : Longnail.Flow.outputs) ->
      check_bool "same yaml bytes" true (cold.o_yaml = warm.o_yaml);
      check_bool "same sv bytes" true
        (List.equal
           (fun (a : Longnail.Flow.output_func) (b : Longnail.Flow.output_func) ->
             a.of_name = b.of_name && a.of_sv = b.of_sv && a.of_mode = b.of_mode
             && a.of_max_stage = b.of_max_stage)
           cold.o_funcs warm.o_funcs))
    cold warm

(* switching the emission backend against the same disk store must miss
   (distinct keys), not replay the other backend's bytes *)
let test_disk_backend_keyed () =
  let root = tmpdir () in
  let tu = Isax.Registry.compile_by_name "dotprod" in
  let run knobs =
    let session = Longnail.Flow.create_session ~disk:(Cache.Disk.open_store root) () in
    let request = Longnail.Flow.Request.make ~knobs ~session () in
    let o = Longnail.Flow.compile_outputs request Scaiev.Datasheet.vexriscv tu in
    (o, Cache.Disk.stats (Option.get (Longnail.Flow.session_disk session)))
  in
  let _, sv_st = run (Longnail.Flow.knobs ()) in
  check_int "cold stores" 1 sv_st.Cache.Disk.stores;
  let _, v_st = run (Longnail.Flow.knobs ~backend:Rtl.Backend.V2001 ()) in
  check_int "backend switch misses" 1 v_st.Cache.Disk.misses;
  check_int "backend switch never hits stale sv" 0 v_st.Cache.Disk.hits;
  (* same knobs again: now it replays from disk *)
  let _, again_st = run (Longnail.Flow.knobs ~backend:Rtl.Backend.V2001 ()) in
  check_int "same backend replays" 1 again_st.Cache.Disk.hits

let () =
  Alcotest.run "cache"
    [
      ( "store",
        [
          Alcotest.test_case "hit/miss" `Quick test_store_hit_miss;
          Alcotest.test_case "raise not stored" `Quick test_store_raise_not_stored;
          Alcotest.test_case "lru eviction" `Quick test_store_lru_eviction;
          Alcotest.test_case "disabled" `Quick test_store_disabled;
          Alcotest.test_case "obs counters" `Quick test_store_obs_counters;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "tunit deterministic" `Quick test_unit_digest_deterministic;
          Alcotest.test_case "locations excluded" `Quick test_unit_digest_ignores_file_name;
          Alcotest.test_case "source sensitivity" `Quick test_unit_digest_source_sensitivity;
          Alcotest.test_case "import text keyed" `Quick test_unit_digest_import_sensitivity;
          Alcotest.test_case "golden digests" `Quick test_unit_digest_golden;
          Alcotest.test_case "datasheets distinct" `Quick test_datasheet_fp_distinct;
          Alcotest.test_case "paper-core artifacts golden" `Slow
            test_paper_core_artifacts_golden;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip across processes" `Quick
            test_disk_roundtrip_across_processes;
          Alcotest.test_case "eviction respects budget" `Quick
            test_disk_eviction_respects_budget;
          Alcotest.test_case "atomic publish, no partials" `Quick test_disk_no_partial_files;
          Alcotest.test_case "version mismatch invalidates" `Quick
            test_disk_version_mismatch_invalidates;
          Alcotest.test_case "corrupt payload evicted" `Quick test_disk_corrupt_payload_evicted;
          Alcotest.test_case "concurrent domain writers" `Quick test_disk_concurrent_writers;
          Alcotest.test_case "disk-backed session outputs" `Quick
            test_disk_backed_session_outputs;
          Alcotest.test_case "backend keyed on disk" `Quick test_disk_backend_keyed;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "recompile from cache" `Quick test_session_recompile_from_cache;
          Alcotest.test_case "content addressed" `Quick test_session_content_addressed;
          Alcotest.test_case "cached = uncached (all targets)" `Slow
            test_cached_equals_uncached_everywhere;
          Alcotest.test_case "hazard ablation shares funcs" `Quick
            test_session_hazard_shares_funcs;
          Alcotest.test_case "knob isolation" `Quick test_session_knob_isolation;
          Alcotest.test_case "backend switch emits only" `Quick
            test_session_backend_switch_emits_only;
          Alcotest.test_case "compile_many shares" `Quick test_compile_many_shares;
          Alcotest.test_case "frontend memo" `Quick test_frontend_memo;
          Alcotest.test_case "long-lived session stays bounded" `Quick test_session_bounded;
        ] );
    ]
