(* The benchmark's command line:

     main.exe --workload W --seed N --seconds S --trace 0|1 --cli LONGNAIL
     main.exe --write-digests

   Run from the repository root (perfbench/run.sh builds and does that).
   The last line of standard output is the JSON result; everything else
   is progress. Exits 1, printing no result, when set-up or a run raises. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH\n\
    \       main.exe --write-digests";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--write-digests" ] then (Compile_cold.write_expected (); exit 0);
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "--workload" and seed = int_of "--seed" and seconds = int_of "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  (* SIGINT/SIGTERM unwind through every teardown like any failure *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  match
    Bench.with_tmp_dir (fun tmp ->
        let env =
          {
            Common.seed;
            trace;
            tmp;
            cli = get "--cli";
            expected = Compile_cold.load_expected Compile_cold.expected_file;
            max_ops = None;
          }
        in
        Bench.run ~workload ~env ~seconds:(float_of_int seconds))
  with
  | o -> print_endline (Bench.to_json o)
  | exception ex ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string ex);
      exit 1
