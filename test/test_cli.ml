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

(* run the CLI on an assembler program; returns the exit code and stderr *)
let run_program args program =
  let src = Filename.temp_file "longnail_prog" ".s" in
  let err = Filename.temp_file "longnail_err" ".txt" in
  Out_channel.with_open_text src (fun oc -> output_string oc program);
  let code =
    Sys.command
      (Printf.sprintf "%s run %s %s > /dev/null 2> %s" (Filename.quote cli) args (Filename.quote src)
         (Filename.quote err))
  in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove src;
  Sys.remove err;
  (code, stderr)

(* A program that never halts is a user error (E0602, exit 1), not an
   internal one (exit 3). The `j .` spin used to fall through to the next
   word and halt. The cost and pipeline engines share the same handler;
   their default budgets take several seconds to exhaust, so only the
   rtl-loop engine runs here. *)
let test_run_out_of_fuel () =
  List.iter
    (fun (name, program) ->
      let code, stderr =
        run_program "-c VexRiscv --engine rtl-loop --error-format json" program
      in
      check_int (name ^ ": exit code") 1 code;
      check_bool (name ^ ": E0602 in " ^ stderr) true (contains stderr "\"code\":\"E0602\""))
    [
      ("self jump", "loop:\n  j loop\n");
      ("long loop", "li a0, 1\nloop: addi a0, a0, 1\nbnez a0, loop\nebreak\n");
    ]

let () =
  Alcotest.run "cli"
    [
      ( "run",
        [
          Alcotest.test_case "out of fuel is E0602" `Quick test_run_out_of_fuel;
        ] );
    ]
