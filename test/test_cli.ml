(* Tests for the longnail command line, driven through the built binary:
   `longnail run` exit codes and the diagnostic codes it reports. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/longnail_cli.exe"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* [s] with its first [needle] replaced by [by] *)
let replace_first s ~needle ~by =
  let n = String.length needle in
  let rec find i = if String.sub s i n = needle then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* run the CLI with [args]; returns the exit code, stdout and stderr *)
let run_cli args =
  let out = Filename.temp_file "longnail_out" ".txt" in
  let err = Filename.temp_file "longnail_err" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args (Filename.quote out) (Filename.quote err))
  in
  let read f = In_channel.with_open_text f In_channel.input_all in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* run the CLI on an assembler program; returns the exit code, stdout and stderr *)
let run_program args program =
  let src = Filename.temp_file "longnail_prog" ".s" in
  Out_channel.with_open_text src (fun oc -> output_string oc program);
  let result = run_cli (Printf.sprintf "run %s %s" args (Filename.quote src)) in
  Sys.remove src;
  result

(* A program that never halts is a user error (E0602, exit 1), not an
   internal one (exit 3). The `j .` spin used to fall through to the next
   word and halt. The cost and pipeline engines share the same handler;
   their default budgets take several seconds to exhaust, so only the
   rtl-loop engine runs here. *)
let test_run_out_of_fuel () =
  List.iter
    (fun (name, program) ->
      let code, _, stderr =
        run_program "-c VexRiscv --engine rtl-loop --error-format json" program
      in
      check_int (name ^ ": exit code") 1 code;
      check_bool (name ^ ": E0602 in " ^ stderr) true (contains stderr "\"code\":\"E0602\""))
    [
      ("self jump", "loop:\n  j loop\n");
      ("long loop", "li a0, 1\nloop: addi a0, a0, 1\nbnez a0, loop\nebreak\n");
    ]

(* the diagnostic codes in a JSON-format stderr *)
let codes s =
  String.split_on_char '"' s |> List.filter (fun t -> String.length t = 5 && t.[0] = 'E')

(* Every malformed program is a user error with exactly E0601 (exit 1):
   an unknown .isax instruction, an .isax line that leaves a field out
   and a non-numeric load offset used to escape as internal errors. *)
let test_run_malformed_program () =
  List.iter
    (fun (name, args, program) ->
      let code, _, stderr =
        run_program ("-c vexriscv --error-format json " ^ args) (program ^ "\nebreak\n")
      in
      check_int (name ^ ": exit code") 1 code;
      Alcotest.(check (list string)) (name ^ ": codes in " ^ stderr) [ "E0601" ] (codes stderr);
      check_bool (name ^ ": no internal error") false (contains stderr "internal error"))
    [
      ("unknown .isax", "", ".isax NOPE rd=a0");
      ("missing .isax field", "-n autoinc", ".isax AI_LW");
      ("bad offset", "", "lw a0, foo(a1)");
    ]

(* Every registered core runs a trivial program (exit 0, a0 = 5) on every
   engine, except that the pipeline engine rejects an FSM-sequenced core
   with exactly E0603 (exit 1); none is an internal error (exit 3). *)
let test_run_every_core_engine () =
  let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s) in
  let _, names, _ = run_cli "cores --names" in
  let _, listing, _ = run_cli "cores" in
  (* the FSM cores of the datasheet listing, by slug *)
  let fsm, _ =
    List.fold_left
      (fun (fsm, core) l ->
        match String.split_on_char ' ' l with
        | [ "core:"; name ] -> (fsm, String.lowercase_ascii name)
        | _ when contains l "fsm: true" -> (core :: fsm, core)
        | _ -> (fsm, core))
      ([], "") (lines listing)
  in
  check_bool "an FSM core is listed" true (fsm <> []);
  List.iter
    (fun core ->
      List.iter
        (fun engine ->
          let case = Printf.sprintf "%s/%s" core engine in
          match
            run_program
              (Printf.sprintf "-c %s --engine %s --error-format json" core engine)
              "li a0, 5\nebreak\n"
          with
          | 1, _, stderr when engine = "pipeline" && List.mem core fsm ->
              check_bool (case ^ ": E0603 in " ^ stderr) true (contains stderr "\"code\":\"E0603\"")
          | 0, stdout, _ when not (engine = "pipeline" && List.mem core fsm) ->
              check_bool (case ^ ": a0 = 5 in " ^ stdout) true (contains stdout "a0 = 5 ")
          | code, _, stderr -> Alcotest.failf "%s: exit %d: %s" case code stderr)
        [ "cost"; "pipeline"; "rtl-loop" ])
    (lines names)

(* Literal, type and cast widths run from 1 to 65536 bits. A zero width or
   a huge one used to escape as an internal error (Width_error, out of
   memory), and a hex literal width compiled. Each is a user error (exit 1)
   with exactly one registered code. *)
let test_compile_bad_widths () =
  let _, registered, _ = run_cli "diag --list-codes" in
  let _, dotp, _ = run_cli "bundled -n dotprod" in
  let local = "signed<32> res = 0;" and state = "instructions {" in
  List.iter
    (fun (needle, changed, want) ->
      let src = Filename.temp_file "longnail_src" ".core_desc" in
      let out = Filename.temp_file "longnail_out" "" in
      Sys.remove out;
      Out_channel.with_open_text src (fun oc ->
          output_string oc (replace_first dotp ~needle ~by:changed));
      let code, _, stderr =
        run_cli
          (Printf.sprintf "compile -c VexRiscv -t X_DOTP --error-format json -o %s %s"
             (Filename.quote out) (Filename.quote src))
      in
      Sys.remove src;
      check_int (changed ^ ": exit code") 1 code;
      Alcotest.(check (list string)) (changed ^ ": codes in " ^ stderr) [ want ] (codes stderr);
      check_bool (want ^ " is registered") true (contains registered (want ^ " "));
      check_bool (changed ^ ": no internal error") false (contains stderr "internal error"))
    [
      (local, "signed<32> res = 0'd0;", "E0002");
      (local, "signed<32> res = 99999999999999'd1;", "E0002");
      (local, "signed<32> res = 0x8'd5;", "E0002");
      (local, "unsigned<0> res = 0;", "E0109");
      (local, "unsigned<99999999999999> res = 0;", "E0109");
      (local, "signed<32> res = (unsigned<0>) 0;", "E0109");
      (* a constant width whose evaluation fails is that error, not "not a constant" *)
      (local, "unsigned<(unsigned<0>) 8> res = 0;", "E0204");
      (local, "unsigned<8 / 0> res = 0;", "E0204");
      (local, "unsigned<(5)[70:0]> res = 0;", "E0204");
      (state, "architectural_state { unsigned<8 / 0> K = 5; } " ^ state, "E0204");
      (state, "architectural_state { register unsigned<70000> Q; } " ^ state, "E0200");
      (state, "architectural_state { unsigned<32> K = (unsigned<0>) 5; } " ^ state, "E0204");
    ]

let () =
  Alcotest.run "cli"
    [
      ( "run",
        [
          Alcotest.test_case "out of fuel is E0602" `Quick test_run_out_of_fuel;
          Alcotest.test_case "every core on every engine" `Quick test_run_every_core_engine;
          Alcotest.test_case "malformed programs are E0601" `Quick test_run_malformed_program;
        ] );
      ("compile", [ Alcotest.test_case "out-of-range widths" `Quick test_compile_bad_widths ]);
    ]
