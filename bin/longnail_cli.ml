(* The Longnail command-line driver.

     longnail compile -c vexriscv -t X_DOTP input.core_desc -o out/
         compile a CoreDSL description: writes one SystemVerilog module per
         ISAX functionality plus the SCAIE-V configuration YAML;
         --profile[=json|schema] prints one timed span per Figure-9
         pipeline stage (docs/OBSERVABILITY.md)
     longnail cores
         list the supported host cores and their virtual datasheets
     longnail bundled [-n dotprod]
         list (or print) the bundled benchmark ISAXes
     longnail asic -c vexriscv -n dotprod
         run the ASIC flow model on a bundled ISAX
     longnail serve --socket PATH [--store DIR]
         long-running compile daemon: line-delimited JSON requests over
         a Unix socket against one warm session (docs/SERVE.md)
     longnail client --socket PATH [REQUEST | --ping | --shutdown]
         send one request (or stdin lines) to a serve daemon *)

open Cmdliner

(* How user diagnostics are rendered by the top-level handler: caret-snippet
   text (default) or the stable JSON schema of docs/DIAGNOSTICS.md. Set as a
   side effect of term evaluation so the handler in [main] sees the choice. *)
let error_format = ref `Text

let error_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "error-format" ] ~docv:"FORMAT"
        ~doc:"How to render diagnostics: 'text' (caret snippets) or 'json'.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --core parsing, the help text and the unknown-core suggestions all
   come from the core registry, so none of them can drift from the set
   of registered cores. *)
let core_conv =
  let parse s =
    match Scaiev.Core_registry.resolve s with
    | Ok d -> Ok d.Scaiev.Core_registry.datasheet
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt (c : Scaiev.Datasheet.t) -> Format.pp_print_string fmt c.core_name)

let core_arg =
  let doc =
    Printf.sprintf "Host core (%s; outlook: %s)."
      (String.concat ", " (Scaiev.Core_registry.slugs ()))
      (String.concat ", "
         (List.map
            (fun (d : Scaiev.Core_registry.t) -> d.slug)
            (Scaiev.Core_registry.outlook ())))
  in
  Arg.(required & opt (some core_conv) None & info [ "c"; "core" ] ~docv:"CORE" ~doc)

(* ---- the shared knob/cache/parallelism flags ----

   The flag table lives in [Longnail.Knob_flags] (shared with the bench
   harness); here it is bridged generically into cmdliner terms. The
   term evaluates to the (name, value) pairs actually given; [run]
   folds them through [Knob_flags.set], so a malformed value surfaces
   as a cmdliner usage error (exit 2) with the parser's message. *)
let knob_flags_term : (string * string option) list Term.t =
  List.fold_left
    (fun acc (s : Longnail.Knob_flags.spec) ->
      let term =
        match s.arg with
        | None ->
            Term.(
              const (fun b -> if b then Some (s.name, None) else None)
              $ Arg.(value & flag & info [ s.name ] ~doc:s.doc))
        | Some docv ->
            Term.(
              const (Option.map (fun v -> (s.name, Some v)))
              $ Arg.(value & opt (some string) None & info [ s.name ] ~docv ~doc:s.doc))
      in
      Term.(const (fun o l -> match o with Some kv -> kv :: l | None -> l) $ term $ acc))
    (Term.const []) Longnail.Knob_flags.specs

(* Malformed knob values are plain usage errors (exit 2) — except flags
   with a structured diagnostic code ([Knob_flags.error_code]): unknown
   --emit backend names raise E0913 with did-you-mean suggestions,
   rendered like any other diagnostic (exit 1). *)
let resolve_knob_flags settings =
  List.fold_left
    (fun acc (name, value) ->
      Result.bind acc (fun t ->
          match Longnail.Knob_flags.set t name value with
          | Ok t -> Ok t
          | Error msg -> (
              match Longnail.Knob_flags.error_code name with
              | Some code -> Diag.fatalf ~code "%s" msg
              | None -> Error msg)))
    (Ok Longnail.Knob_flags.default) settings

(* ---- compile ---- *)

let compile_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"CoreDSL input file.")
  in
  let target =
    Arg.(
      required
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"NAME" ~doc:"InstructionSet or Core to elaborate.")
  in
  let outdir =
    Arg.(value & opt string "." & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Also write a Graphviz CDFG per functionality.")
  in
  let profile =
    Arg.(
      value
      & opt
          ~vopt:(Some `Pretty)
          (some (enum [ ("pretty", `Pretty); ("json", `Json); ("schema", `Schema) ]))
          None
      & info [ "profile" ] ~docv:"FORMAT"
          ~doc:
            "Profile the pipeline: one span per Figure-9 stage with stage metrics.              FORMAT is 'pretty' (default), 'json' (the span tree on stdout), or              'schema' (the sorted metric-name schema, for the CI contract check).")
  in
  let run efmt input target core outdir knob_settings dot profile =
    error_format := efmt;
    match resolve_knob_flags knob_settings with
    | Error msg -> `Error (true, msg)
    | Ok kf ->
    (* with machine-readable profile output, progress notes move to
       stderr so stdout stays pure JSON / schema lines *)
      let note fmt =
        match profile with
        | Some (`Json | `Schema) -> Printf.eprintf fmt
        | _ -> Printf.printf fmt
      in
      let obs =
        match profile with None -> None | Some _ -> Some (Obs.create ~name:"compile" ())
      in
      let src = read_file input in
      (* one compilation session per invocation: a single compile is
         served cold, but the profile output carries the cache counters
         (always present, so the schema is invocation-independent) *)
      let session = Longnail.Knob_flags.session kf in
      let fe_key =
        Cache.Fp.digest (fun b ->
            Cache.Fp.add_string b input;
            Cache.Fp.add_string b target;
            Cache.Fp.add_string b src)
      in
      let tu =
        Obs.span_opt obs "parse_typecheck" (fun sobs ->
            let tu =
              Longnail.Flow.frontend session ?obs:sobs ~key:fe_key (fun () ->
                  match
                    Coredsl.compile_result ~provider:Isax.Registry.provider ~file:input ~target
                      src
                  with
                  | Ok tu -> tu
                  | Error ds -> raise (Diag.Fatal ds))
            in
            Obs.metric_int_opt sobs "source_bytes" (String.length src);
            Obs.metric_int_opt sobs "n_instructions" (List.length tu.Coredsl.Tast.tinstrs);
            Obs.metric_int_opt sobs "n_always" (List.length tu.Coredsl.Tast.talways);
            tu)
      in
      (* one unified request drives the batch driver even for a single
         target, so the profile schema (parallel_compile / target:* spans)
         is identical at any --jobs value *)
      let request = Longnail.Knob_flags.request ~session ?obs kf in
      let disk = Longnail.Flow.session_disk session in
      (* the disk-backed path compiles (or reloads) only the portable
         output projection: a warm hit never rebuilds netlists, so the
         full artifacts --dot needs exist only without --store *)
      let outputs, write_dot =
        match disk with
        | Some _ ->
            if dot then
              Diag.fatalf ~code:"E0902"
                "--dot needs the full compile artifacts and cannot be combined with --store";
            ( (match Longnail.Flow.compile_many_outputs ~request [ (core, tu) ] with
              | [ o ] -> o
              | _ -> Diag.fatalf ~code:"E0901" "internal: compile_many_outputs lost the target"),
              ignore )
        | None ->
            let c =
              match Longnail.Flow.compile_many ~request [ (core, tu) ] with
              | [ c ] -> c
              | _ -> Diag.fatalf ~code:"E0901" "internal: compile_many lost the target"
            in
            let write_dot name =
              let f = List.find (fun (f : Longnail.Flow.compiled_functionality) -> f.cf_name = name) c.funcs in
              let dpath = Filename.concat outdir (name ^ ".dot") in
              let time_of oid =
                try
                  Some
                    (Longnail.Sched_build.start_time f.cf_built
                       (List.find (fun (o : Ir.Mir.op) -> o.oid = oid) (Ir.Mir.all_ops f.cf_lil)))
                with _ -> None
              in
              write_file dpath (Ir.Dot.of_graph ~time_of f.cf_lil);
              note "wrote %s\n" dpath
            in
            (Longnail.Flow.outputs_of_compiled c, if dot then write_dot else ignore)
      in
      if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
      List.iter
        (fun (f : Longnail.Flow.output_func) ->
          let path =
            Filename.concat outdir
              (f.of_name ^ "." ^ Rtl.Backend.file_ext kf.Longnail.Knob_flags.knobs.k_backend)
          in
          write_file path f.of_sv;
          note "wrote %s (%s, last stage %d)\n" path f.of_mode f.of_max_stage;
          write_dot f.of_name)
        outputs.o_funcs;
      let cfg_path = Filename.concat outdir "scaiev_config.yaml" in
      write_file cfg_path outputs.o_yaml;
      note "wrote %s\n" cfg_path;
      Option.iter
        (fun disk ->
          let st = Cache.Disk.stats disk in
          note "disk-store: hits=%d misses=%d stores=%d evictions=%d corrupt=%d\n"
            st.Cache.Disk.hits st.misses st.stores st.evictions st.corrupt)
        disk;
      Option.iter Obs.finish obs;
      (match (profile, obs) with
      | Some `Pretty, Some s ->
          Obs.validate (Obs.root s);
          print_newline ();
          print_string (Obs.to_pretty (Obs.root s))
      | Some `Json, Some s ->
          Obs.validate (Obs.root s);
          print_endline (Obs.to_json (Obs.root s))
      | Some `Schema, Some s ->
          Obs.validate (Obs.root s);
          List.iter print_endline (Obs.schema (Obs.root s))
      | _ -> ());
    (* Obs.Invalid_metrics deliberately escapes to the internal-error
       handler: non-finite profile metrics are a bug, not a user error *)
    `Ok ()
  in
  let doc = "Compile a CoreDSL description to SystemVerilog + SCAIE-V configuration." in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      ret
        (const run $ error_format_arg $ input $ target $ core_arg $ outdir $ knob_flags_term
       $ dot $ profile))

(* ---- cores ---- *)

let cores_cmd =
  let outlook_arg =
    Arg.(
      value & flag
      & info [ "outlook" ]
          ~doc:"Also list the Section-7 application-class outlook prototypes (cva5, cva6).")
  in
  let names_arg =
    Arg.(
      value & flag
      & info [ "names" ]
          ~doc:
            "Print one registered core slug per line instead of the datasheets (the              scripts/check_core_grid.sh CI gate diffs this against the full listing).")
  in
  let run include_outlook names =
    let cores = Scaiev.Core_registry.all ~include_outlook () in
    if names then
      List.iter (fun (d : Scaiev.Core_registry.t) -> print_endline d.slug) cores
    else
      List.iter
        (fun (d : Scaiev.Core_registry.t) ->
          let c = d.datasheet in
          Printf.printf "# %s\n" d.summary;
          print_endline (Scaiev.Datasheet.to_yaml c);
          Printf.printf "baseline: %.0f um^2, %.0f MHz\n\n" c.base_area_um2 c.base_freq_mhz)
        cores
  in
  let doc = "List the registered host cores and their virtual datasheets." in
  Cmd.v (Cmd.info "cores" ~doc) Term.(const run $ outlook_arg $ names_arg)

(* ---- bundled ---- *)

let bundled_cmd =
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "n"; "name" ] ~docv:"ISAX" ~doc:"Print the CoreDSL source of one bundled ISAX.")
  in
  let run = function
    | None ->
        List.iter
          (fun (e : Isax.Registry.entry) -> Printf.printf "%-15s %s\n" e.name e.description)
          Isax.Registry.all;
        `Ok ()
    | Some n -> (
        match Isax.Registry.find n with
        | Some e ->
            print_string e.source;
            `Ok ()
        | None -> Diag.fatalf ~code:"E0202" "unknown ISAX '%s'" n)
  in
  let doc = "List the bundled benchmark ISAXes (Table 3) or print one." in
  Cmd.v (Cmd.info "bundled" ~doc) Term.(ret (const run $ name_arg))

(* ---- asic ---- *)

let asic_cmd =
  let name_arg =
    Arg.(
      required & opt (some string) None & info [ "n"; "name" ] ~docv:"ISAX" ~doc:"Bundled ISAX.")
  in
  let run efmt core name =
    error_format := efmt;
    match Isax.Registry.find name with
    | None -> Diag.fatalf ~code:"E0202" "unknown ISAX '%s'" name
    | Some e ->
        let c = Longnail.Flow.compile core (Isax.Registry.compile e) in
        let r = Asic.Flow.run ~isax_name:name c in
        Printf.printf "core          %s\n" r.core_name;
        Printf.printf "base          %.0f um^2 @ %.0f MHz\n" r.base_area_um2 r.base_freq_mhz;
        Printf.printf "ISAX modules  %.0f um^2\n" r.isax_area_um2;
        Printf.printf "adapter       %.0f um^2\n" r.adapter_area_um2;
        Printf.printf "total         %.0f um^2 (+%.0f%%)\n" r.total_area_um2 r.area_overhead_pct;
        Printf.printf "frequency     %.0f MHz (%+.0f%%)\n" r.achieved_freq_mhz r.freq_delta_pct;
        List.iter
          (fun (n, (rep : Asic.Synth.report)) ->
            Printf.printf "  module %-12s %8.0f um^2, critical path %.2f ns, %d cells\n" n
              rep.area_um2 rep.critical_path_ns rep.n_cells)
          r.module_reports;
        `Ok ()
  in
  let doc = "Run the 22nm ASIC flow model on a bundled ISAX for one core." in
  Cmd.v (Cmd.info "asic" ~doc) Term.(ret (const run $ error_format_arg $ core_arg $ name_arg))

(* ---- run: execute an assembly program on an extended core ---- *)

let run_cmd =
  let prog_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"PROG.S" ~doc:"Assembly program (RV32IM + .isax directives).")
  in
  let isax_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "n"; "isax" ] ~docv:"ISAX" ~doc:"Bundled ISAX to extend the core with.")
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("cost", `Cost); ("pipeline", `Pipeline); ("rtl-loop", `Rtl_loop) ]) `Cost
      & info [ "engine" ]
          ~doc:
            "Execution engine: 'cost' (cycle-cost model), 'pipeline' (structural pipeline with              the generated RTL wired in), or 'rtl-loop' (ISAXes through the RTL, base ISA              interpreted).")
  in
  let run efmt core isax engine knob_settings prog =
    error_format := efmt;
    match resolve_knob_flags knob_settings with
    | Error msg -> `Error (true, msg)
    | Ok kf ->
    let entry =
      match isax with
      | Some n -> (
          match Isax.Registry.find n with
          | Some e -> Some e
          | None -> Diag.fatalf ~code:"E0202" "unknown ISAX '%s'" n)
      | None -> None
    in
    (try
      let tu =
        match entry with
        | Some e -> Isax.Registry.compile e
        | None -> Coredsl.compile_rv32im ()
      in
      let c =
        Longnail.Flow.compile
          ~request:(Longnail.Flow.Request.make ~knobs:kf.Longnail.Knob_flags.knobs ())
          core tu
      in
      (* execution defaults (reset PC, initial stack pointer) come from
         the core's registry descriptor *)
      let sim =
        match Scaiev.Core_registry.of_datasheet core with
        | Some d -> d.Scaiev.Core_registry.sim
        | None -> { Scaiev.Core_registry.reset_pc = 0; sp_init = 0x10000 }
      in
      let enc = Riscv.Asm.encoder tu in
      let words = Riscv.Asm.assemble ~custom:enc (read_file prog) in
      let dump_regs read =
        for r = 10 to 17 do
          Printf.printf "  a%d = %d (0x%08x)\n" (r - 10) (read r) (read r)
        done
      in
      (match engine with
      | `Cost ->
          let m = Riscv.Machine.of_compiled c in
          Riscv.Machine.write_gpr m 2 sim.sp_init;
          Riscv.Machine.load_program m ~base:sim.reset_pc words;
          let cycles = Riscv.Machine.run m in
          Printf.printf "engine: cycle-cost model (%s)\n" core.Scaiev.Datasheet.core_name;
          Printf.printf "cycles: %d, instructions: %d\n" cycles m.Riscv.Machine.instret;
          dump_regs (Riscv.Machine.read_gpr m)
      | `Pipeline ->
          let p = Riscv.Pipeline.create c in
          Riscv.Pipeline.load_program p ~base:sim.reset_pc words;
          Riscv.Pipeline.write_gpr p 2 sim.sp_init;
          let cycles = Riscv.Pipeline.run p in
          Printf.printf "engine: structural pipeline with ISAX RTL (%s)\n"
            core.Scaiev.Datasheet.core_name;
          Printf.printf "cycles: %d, instructions: %d\n" cycles p.Riscv.Pipeline.instret;
          dump_regs (Riscv.Pipeline.read_gpr p)
      | `Rtl_loop ->
          let rl = Riscv.Rtl_loop.create c in
          Riscv.Rtl_loop.load_program rl ~base:sim.reset_pc words;
          let instret = Riscv.Rtl_loop.run rl in
          Printf.printf "engine: RTL-in-the-loop (%s)\n" core.Scaiev.Datasheet.core_name;
          Printf.printf "instructions: %d\n" instret;
          dump_regs (Riscv.Rtl_loop.read_gpr rl));
      `Ok ()
     (* no bare [Failure] handler here: anything unexpected must escape to
        the top-level internal-error handler (exit 3), not masquerade as a
        user error *)
     with
     | Riscv.Asm.Asm_error m -> Diag.fatalf ~code:"E0601" "%s" m
     | Riscv.Machine.Out_of_fuel budget ->
         Diag.fatalf ~code:"E0602" "program did not halt within %d %s" budget
           (match engine with `Pipeline -> "cycles" | `Cost | `Rtl_loop -> "instructions"))
  in
  let doc = "Run an assembly program on an (optionally ISAX-extended) core model." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ error_format_arg $ core_arg $ isax_arg $ engine_arg $ knob_flags_term
       $ prog_arg))

(* ---- report ---- *)

let report_cmd =
  let name_arg =
    Arg.(
      required & opt (some string) None & info [ "n"; "name" ] ~docv:"ISAX" ~doc:"Bundled ISAX.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run efmt core name out =
    error_format := efmt;
    match Isax.Registry.find name with
    | None -> Diag.fatalf ~code:"E0202" "unknown ISAX '%s'" name
    | Some e ->
        let c = Longnail.Flow.compile core (Isax.Registry.compile e) in
        let md = Asic.Report.generate ~isax_name:name c in
        (match out with
        | Some path ->
            write_file path md;
            Printf.printf "wrote %s\n" path
        | None -> print_string md);
        `Ok ()
  in
  let doc = "Generate a Markdown report for a bundled ISAX on one core." in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(ret (const run $ error_format_arg $ core_arg $ name_arg $ out_arg))

(* ---- lint ---- *)

let lint_cmd =
  let input =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"CoreDSL input file to lint (requires $(b,--target)).")
  in
  let target =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"NAME" ~doc:"InstructionSet or Core to elaborate.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "n"; "name" ] ~docv:"ISAX" ~doc:"Lint one bundled ISAX.")
  in
  let all_bundled =
    Arg.(
      value & flag
      & info [ "all-bundled" ] ~doc:"Lint every bundled ISAX (the CI lint gate runs this).")
  in
  let werror =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"Treat warnings as errors: exit 1 when any warning fires.")
  in
  let run efmt input target name all werror =
    error_format := efmt;
    let compile_file file tgt =
      let src = read_file file in
      match
        Coredsl.compile_result ~provider:Isax.Registry.provider ~file ~target:tgt src
      with
      | Ok tu -> tu
      | Error ds -> raise (Diag.Fatal ds)
    in
    let units =
      match (all, name, input) with
      | true, None, None ->
          List.map
            (fun (e : Isax.Registry.entry) -> (e.name, Isax.Registry.compile e))
            Isax.Registry.all
      | false, Some n, None -> (
          match Isax.Registry.find n with
          | Some e -> [ (e.name, Isax.Registry.compile e) ]
          | None -> Diag.fatalf ~code:"E0202" "unknown ISAX '%s'" n)
      | false, None, Some file -> (
          match target with
          | Some tgt -> [ (Filename.basename file, compile_file file tgt) ]
          | None -> Diag.fatalf ~code:"E0902" "lint FILE requires --target NAME")
      | false, None, None ->
          Diag.fatalf ~code:"E0902" "nothing to lint: give FILE --target, --name, or --all-bundled"
      | _ ->
          Diag.fatalf ~code:"E0902"
            "conflicting lint inputs: FILE, --name and --all-bundled are mutually exclusive"
    in
    let results =
      List.map
        (fun (label, tu) ->
          let ds = Analysis.Lint.lint_unit tu in
          (label, if werror then Analysis.Lint.promote ds else ds))
        units
    in
    let total = List.fold_left (fun n (_, ds) -> n + List.length ds) 0 results in
    (match !error_format with
    | `Json -> print_endline (Diag.to_json (List.concat_map snd results))
    | `Text ->
        List.iter
          (fun (label, ds) ->
            Printf.printf "== lint %s: %d warning%s ==\n" label (List.length ds)
              (if List.length ds = 1 then "" else "s");
            if ds <> [] then Format.printf "%a@." Diag.render_all ds)
          results);
    if werror && total > 0 then exit 1;
    `Ok ()
  in
  let doc =
    "Lint CoreDSL descriptions: dataflow-based W1xxx warnings (dead assignments, unused \
     fields/registers, provably-constant conditions, oversized shifts, uninitialized reads, \
     state-free instructions)."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      ret (const run $ error_format_arg $ input $ target $ name_arg $ all_bundled $ werror))

(* ---- diag: diagnostics utilities ---- *)

let diag_cmd =
  let list_codes =
    Arg.(
      value & flag
      & info [ "list-codes" ]
          ~doc:"Print every registered error code with its description (CI diffs this              against docs/ERROR_CODES.txt).")
  in
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:
            "Print the registry description and notes for one diagnostic code (e.g. \
             E0530). Unknown codes exit 2 with did-you-mean suggestions.")
  in
  let run list explain =
    match explain with
    | Some code -> (
        match Diag.describe code with
        | Some descr ->
            Printf.printf "%s: %s\n" code descr;
            List.iter (Printf.printf "  note: %s\n") (Diag.explain_notes code);
            `Ok ()
        | None ->
            let hint = Diag.Choice.hint ~names:(List.map fst Diag.all_codes) code in
            `Error (false, Printf.sprintf "unknown diagnostic code '%s'%s" code hint))
    | None ->
        if list then begin
          List.iter (fun (code, descr) -> Printf.printf "%s %s\n" code descr) Diag.all_codes;
          `Ok ()
        end
        else `Error (true, "nothing to do (try --list-codes or --explain CODE)")
  in
  let doc = "Inspect the diagnostics engine (error-code registry)." in
  Cmd.v (Cmd.info "diag" ~doc) Term.(ret (const run $ list_codes $ explain))

(* ---- serve: the long-running compile daemon ---- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let run efmt socket knob_settings =
    error_format := efmt;
    match resolve_knob_flags knob_settings with
    | Error msg -> `Error (true, msg)
    | Ok kf ->
        (* one session for the daemon's whole lifetime: every request
           shares the in-memory stores and (with --store) the disk store *)
        let session = Longnail.Knob_flags.session kf in
        let srv = Server.create ~jobs:kf.Longnail.Knob_flags.jobs ~session ~socket () in
        Printf.eprintf "longnail serve: listening on %s (pid %d)\n%!" socket (Unix.getpid ());
        let stop _ = Server.stop srv in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop) with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop) with Invalid_argument _ -> ());
        Server.serve srv;
        Printf.eprintf "longnail serve: %d request(s) served, exiting\n%!"
          (Server.requests_served srv);
        `Ok ()
  in
  let doc =
    "Serve compile/lint/DSE requests over a Unix-domain socket (line-delimited JSON, \
     docs/SERVE.md). The session — and with $(b,--store), the on-disk artifact store — stays \
     warm across requests; $(b,--jobs) sets the default worker-domain count."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(ret (const run $ error_format_arg $ socket_arg $ knob_flags_term))

(* ---- client: talk to a running daemon ---- *)

let client_cmd =
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra connection attempts (0.1 s apart) while the daemon starts up.")
  in
  let ping_arg = Arg.(value & flag & info [ "ping" ] ~doc:"Send a ping request.") in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to exit.")
  in
  let req_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "One JSON request line to send; '-' (or no request) reads request lines from              stdin instead.")
  in
  let run efmt socket retries ping shutdown req =
    error_format := efmt;
    let c = Server.Client.connect ~retries socket in
    Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
    (* print every response line; the final done event's ok decides the
       exit code (1 = the daemon reported diagnostics) *)
    let do_one line =
      let events = Server.Client.request c line in
      List.iter (fun j -> print_endline (Json.to_string j)) events;
      match List.rev events with
      | last :: _ -> Json.get_bool (Json.member "ok" last) = Some true
      | [] -> false
    in
    let ok =
      match (ping, shutdown, req) with
      | true, false, None -> do_one {|{"op":"ping"}|}
      | false, true, None -> do_one {|{"op":"shutdown"}|}
      | false, false, Some line when line <> "-" -> do_one line
      | false, false, (None | Some "-") ->
          let rec go acc =
            match input_line stdin with
            | line ->
                let ok = if String.trim line = "" then true else do_one line in
                go (acc && ok)
            | exception End_of_file -> acc
          in
          go true
      | _ ->
          Diag.fatalf ~code:"E0902"
            "conflicting client inputs: --ping, --shutdown and REQUEST are mutually exclusive"
    in
    if ok then `Ok () else exit 1
  in
  let doc =
    "Send requests to a running $(b,longnail serve) daemon and print its JSON responses (one \
     per line)."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(ret (const run $ error_format_arg $ socket_arg $ retries_arg $ ping_arg $ shutdown_arg $ req_arg))

(* ---- entry point ----

   Exit codes: 0 success; 1 user diagnostics (rendered per
   --error-format); 2 command-line usage errors; 3 internal errors. *)

let render_fatal ds =
  match !error_format with
  | `Json -> prerr_endline (Diag.to_json ds)
  | `Text -> Format.eprintf "%a@." Diag.render_all ds

let () =
  let doc = "high-level synthesis of portable RISC-V ISA extensions from CoreDSL" in
  let info = Cmd.info "longnail" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        compile_cmd;
        cores_cmd;
        bundled_cmd;
        asic_cmd;
        report_cmd;
        run_cmd;
        lint_cmd;
        diag_cmd;
        serve_cmd;
        client_cmd;
      ]
  in
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok () | `Version | `Help) -> exit 0
  (* cmdliner reports converter failures as `Parse and unknown options /
     missing arguments / unknown subcommands as `Term; all are usage
     errors (cmdliner already printed the message). Genuine user errors
     raise Diag.Fatal and exit 1 below. *)
  | Error (`Parse | `Term | `Exn) -> exit 2
  | exception Diag.Fatal ds ->
      render_fatal ds;
      exit 1
  | exception e ->
      Printf.eprintf "longnail: internal error: %s\n" (Printexc.to_string e);
      prerr_endline "this is a bug; re-run with OCAMLRUNPARAM=b for a backtrace";
      exit 3
