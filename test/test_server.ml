(* Tests for the longnail serve daemon (lib/server): the JSON codec,
   the protocol step (Server.handle_line, no sockets), and full
   client/server round trips over a real Unix socket — including the
   docs/SERVE.md guarantees that diagnostics ride the wire and that a
   malformed request or failing compile never kills the daemon. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

module Json = Server.Json

(* ---- the JSON codec ---- *)

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error m -> Alcotest.failf "parse %S failed: %s" s m

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      {|{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}|};
      {|"line\nbreak and \"quote\" and \\ backslash"|};
      "[]";
      "{}";
    ]
  in
  List.iter
    (fun s ->
      let j = parse_ok s in
      check_bool s true (parse_ok (Json.to_string j) = j))
    cases

let test_json_numbers () =
  check_bool "int" true (Json.get_int (parse_ok "42") = Some 42);
  check_bool "negative" true (Json.get_int (parse_ok "-7") = Some (-7));
  check_bool "float not int" true (Json.get_int (parse_ok "1.5") = None);
  check_bool "float" true (Json.get_float (parse_ok "1.5") = Some 1.5);
  check_bool "exponent" true (Json.get_float (parse_ok "2e3") = Some 2000.0);
  check_str "int renders bare" "3" (Json.number_to_string 3.0);
  check_bool "int roundtrips through render" true
    (Json.get_int (parse_ok (Json.number_to_string 123.0)) = Some 123)

let test_json_escapes () =
  let j = parse_ok {|"tab\there A end"|} in
  check_bool "escapes decoded" true (Json.get_string j = Some "tab\there A end");
  (* control characters in emitted strings must re-parse *)
  let s = Json.quote "a\nb\tc\"d\\e\x01f" in
  check_bool "re-parses" true (Json.get_string (parse_ok s) = Some "a\nb\tc\"d\\e\x01f")

let test_json_rejects () =
  let bad = [ "{"; "[1,"; {|{"a"}|}; "tru"; ""; "1 2"; {|"unterminated|} ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    bad

let test_json_member () =
  let j = parse_ok {|{"op":"ping","n":3}|} in
  check_bool "present" true (Json.get_string (Json.member "op" j) = Some "ping");
  check_bool "absent is Null" true (Json.member "nope" j = Json.Null);
  check_bool "non-object is Null" true (Json.member "x" (Json.Num 1.0) = Json.Null)

(* ---- the protocol step, no sockets ---- *)

let tmpsock () =
  let f = Filename.temp_file "longnail-srv" ".sock" in
  Sys.remove f;
  f

let make_server () =
  Server.create ~session:(Longnail.Flow.create_session ()) ~socket:(tmpsock ()) ()

let one_line = function
  | [ l ] -> parse_ok l
  | ls -> Alcotest.failf "expected one response line, got %d" (List.length ls)

let diag_codes j =
  match Json.member "diagnostics" (Json.member "diag" j) with
  | Json.Arr ds ->
      List.filter_map (fun d -> Json.get_string (Json.member "code" d)) ds
  | _ -> []

let test_ping () =
  let srv = make_server () in
  let j = one_line (Server.handle_line srv {|{"id":9,"op":"ping"}|}) in
  check_bool "ok" true (Json.get_bool (Json.member "ok" j) = Some true);
  check_bool "id echoed" true (Json.get_int (Json.member "id" j) = Some 9);
  check_bool "protocol" true
    (Json.get_int (Json.member "protocol" j) = Some Server.protocol_version)

let test_malformed_is_e0910 () =
  let srv = make_server () in
  let j = one_line (Server.handle_line srv {|{"op":|}) in
  check_bool "not ok" true (Json.get_bool (Json.member "ok" j) = Some false);
  Alcotest.(check (list string)) "E0910" [ "E0910" ] (diag_codes j);
  (* the daemon still answers afterwards: per-request isolation *)
  let j = one_line (Server.handle_line srv {|{"op":"ping"}|}) in
  check_bool "still alive" true (Json.get_bool (Json.member "ok" j) = Some true)

let test_unknown_op_and_missing_fields () =
  let srv = make_server () in
  let expect_e0910 line =
    let j = one_line (Server.handle_line srv line) in
    Alcotest.(check (list string)) line [ "E0910" ] (diag_codes j)
  in
  expect_e0910 {|{"op":"frobnicate"}|};
  expect_e0910 {|{"op":"compile"}|};
  expect_e0910 {|{"op":"compile","isax":"no-such-isax","core":"vexriscv"}|};
  expect_e0910 {|{"op":"compile","isax":"dotprod","core":"vexriscv","jobs":0}|};
  expect_e0910 {|{"op":"compile","isax":"dotprod","core":"vexriscv","knobs":{"scheduler":"bogus"}}|};
  (* cache/store control is daemon-side configuration *)
  expect_e0910 {|{"op":"compile","isax":"dotprod","core":"vexriscv","knobs":{"store":"/tmp/x"}}|}

(* unknown core names are not generic malformed-request failures: they
   get the dedicated E0912 code, and the message carries the registry's
   available-core list plus the same did-you-mean suggestions as the
   CLI's --core converter *)
let test_unknown_core_is_e0912 () =
  let srv = make_server () in
  let diag_messages j =
    match Json.member "diagnostics" (Json.member "diag" j) with
    | Json.Arr ds ->
        List.filter_map (fun d -> Json.get_string (Json.member "message" d)) ds
    | _ -> []
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      let j = one_line (Server.handle_line srv line) in
      check_bool "not ok" true (Json.get_bool (Json.member "ok" j) = Some false);
      Alcotest.(check (list string)) line [ "E0912" ] (diag_codes j);
      let msg = String.concat " " (diag_messages j) in
      List.iter
        (fun slug -> check_bool (line ^ " lists " ^ slug) true (contains msg slug))
        (Scaiev.Core_registry.slugs ~include_outlook:true ()))
    [
      {|{"op":"compile","isax":"dotprod","core":"made-up-core"}|};
      {|{"op":"compile","isax":"dotprod","cores":["vexriscv","made-up-core"]}|};
      {|{"op":"dse","isax":"dotprod","core":"made-up-core"}|};
    ];
  (* a near-miss typo gets a did-you-mean pointing at the right slug *)
  let j =
    one_line (Server.handle_line srv {|{"op":"compile","isax":"dotprod","core":"mricsv"}|})
  in
  Alcotest.(check (list string)) "typo is E0912" [ "E0912" ] (diag_codes j);
  let msg = String.concat " " (diag_messages j) in
  check_bool "suggests mriscv" true (contains msg "did you mean 'mriscv'?");
  (* the daemon still answers afterwards: per-request isolation *)
  let j = one_line (Server.handle_line srv {|{"op":"ping"}|}) in
  check_bool "still alive" true (Json.get_bool (Json.member "ok" j) = Some true)

(* an unknown or retired knob name is named as such (not blamed on its
   value), with a did-you-mean hint, in one E0910 done event *)
let test_unknown_knob_is_e0910 () =
  let srv = make_server () in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (knobs, name, hint) ->
      let line =
        Printf.sprintf {|{"op":"compile","isax":"dotprod","core":"vexriscv","knobs":%s}|} knobs
      in
      let j = one_line (Server.handle_line srv line) in
      check_bool (line ^ " is a done event") true
        (Json.get_string (Json.member "event" j) = Some "done");
      check_bool "not ok" true (Json.get_bool (Json.member "ok" j) = Some false);
      Alcotest.(check (list string)) line [ "E0910" ] (diag_codes j);
      let msg =
        match Json.member "diagnostics" (Json.member "diag" j) with
        | Json.Arr (d :: _) -> Option.value (Json.get_string (Json.member "message" d)) ~default:""
        | _ -> ""
      in
      check_bool (line ^ " names the knob") true
        (contains msg (Printf.sprintf "unknown knob '%s' (available: " name));
      Option.iter
        (fun h -> check_bool (line ^ " suggests " ^ h) true (contains msg h))
        hint;
      (* the daemon still answers afterwards *)
      let j = one_line (Server.handle_line srv {|{"op":"ping"}|}) in
      check_bool "still alive" true (Json.get_bool (Json.member "ok" j) = Some true))
    [
      ({|{"sheduler":"asap"}|}, "sheduler", Some "did you mean 'scheduler'?");
      ({|{"narow":true}|}, "narow", Some "did you mean 'narrow'?");
      ({|{"sim-engine":"interp"}|}, "sim-engine", None);
    ]

let test_compile_inline () =
  let srv = make_server () in
  let lines =
    Server.handle_line srv
      {|{"id":1,"op":"compile","isax":"dotprod","cores":["vexriscv","picorv32"]}|}
  in
  check_int "two targets + done" 3 (List.length lines);
  let js = List.map parse_ok lines in
  let targets, dones =
    List.partition
      (fun j -> Json.get_string (Json.member "event" j) = Some "target")
      js
  in
  check_int "one done" 1 (List.length dones);
  check_bool "done ok" true
    (Json.get_bool (Json.member "ok" (List.hd dones)) = Some true);
  List.iter
    (fun j ->
      check_bool "target ok" true (Json.get_bool (Json.member "ok" j) = Some true);
      (match Json.get_list (Json.member "funcs" j) with
      | Some (f :: _) ->
          let sv = Json.get_string (Json.member "sv" f) in
          check_bool "sv is a module" true
            (match sv with Some s -> String.length s > 0 | None -> false)
      | _ -> Alcotest.fail "target event carries no funcs");
      check_bool "yaml present" true
        (match Json.get_string (Json.member "yaml" j) with
        | Some y -> String.length y > 0
        | None -> false))
    targets

let test_compile_diagnostics_on_wire () =
  let srv = make_server () in
  (* a type error in inline text: the diagnostics (code + span) must
     come back in the done event, not kill the daemon *)
  let e = Isax.Registry.find_exn "dotprod" in
  let req =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Num 5.0);
           ("op", Json.Str "compile");
           ("text", Json.Str e.Isax.Registry.source);
           ("target", Json.Str "NoSuchInstructionSet");
           ("core", Json.Str "vexriscv");
         ])
  in
  let j = one_line (Server.handle_line srv req) in
  check_bool "not ok" true (Json.get_bool (Json.member "ok" j) = Some false);
  check_bool "carries E0202" true (List.mem "E0202" (diag_codes j));
  (* and a healthy compile still works afterwards *)
  let lines =
    Server.handle_line srv {|{"id":6,"op":"compile","isax":"dotprod","core":"vexriscv"}|}
  in
  check_int "healthy after failure" 2 (List.length lines)

let test_lint_op () =
  let srv = make_server () in
  let j = one_line (Server.handle_line srv {|{"op":"lint","isax":"dotprod"}|}) in
  check_bool "ok" true (Json.get_bool (Json.member "ok" j) = Some true);
  check_bool "findings counted" true (Json.get_int (Json.member "findings" j) <> None)

(* ---- client/server round trips over a real socket ---- *)

let with_daemon f =
  let socket = tmpsock () in
  let srv = Server.create ~session:(Longnail.Flow.create_session ()) ~socket () in
  let daemon = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join daemon)
    (fun () -> f socket srv);
  check_bool "socket file removed on exit" false (Sys.file_exists socket)

let done_of events =
  match List.rev events with
  | last :: _ when Json.get_string (Json.member "event" last) = Some "done" -> last
  | _ -> Alcotest.fail "response did not end with a done event"

let test_socket_roundtrip () =
  with_daemon (fun socket _srv ->
      let c = Server.Client.connect ~retries:50 socket in
      Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
      let events =
        Server.Client.request c
          {|{"id":1,"op":"compile","isax":"dotprod","core":"vexriscv","profile":true}|}
      in
      check_int "target + done" 2 (List.length events);
      let d = done_of events in
      check_bool "ok" true (Json.get_bool (Json.member "ok" d) = Some true);
      check_bool "profile attached" true (Json.member "profile" d <> Json.Null);
      (* malformed request over the wire, then the daemon still serves *)
      let d2 = done_of (Server.Client.request c {|{"op":"frobnicate"}|}) in
      check_bool "error survives transport" true
        (Json.get_bool (Json.member "ok" d2) = Some false);
      let d3 = done_of (Server.Client.request c {|{"op":"ping"}|}) in
      check_bool "alive after error" true (Json.get_bool (Json.member "ok" d3) = Some true))

let test_socket_two_clients_and_shutdown () =
  let socket = tmpsock () in
  let srv = Server.create ~session:(Longnail.Flow.create_session ()) ~socket () in
  let daemon = Domain.spawn (fun () -> Server.serve srv) in
  let c1 = Server.Client.connect ~retries:50 socket in
  let c2 = Server.Client.connect ~retries:50 socket in
  let d1 =
    done_of (Server.Client.request c1 {|{"op":"compile","isax":"dotprod","core":"vexriscv"}|})
  in
  let d2 = done_of (Server.Client.request c2 {|{"op":"stats"}|}) in
  check_bool "client1 ok" true (Json.get_bool (Json.member "ok" d1) = Some true);
  check_bool "client2 ok" true (Json.get_bool (Json.member "ok" d2) = Some true);
  check_bool "stats counted requests" true
    (match Json.get_int (Json.member "requests" d2) with Some n -> n >= 2 | None -> false);
  (* shutdown over the wire: the loop drains and the socket disappears *)
  let d3 = done_of (Server.Client.request c1 {|{"op":"shutdown"}|}) in
  check_bool "shutdown acked" true (Json.get_bool (Json.member "ok" d3) = Some true);
  Server.Client.close c1;
  Server.Client.close c2;
  Domain.join daemon;
  check_bool "socket removed" false (Sys.file_exists socket);
  check_bool "requests served" true (Server.requests_served srv >= 3)

let test_stale_socket_reclaimed () =
  (* debris from a crashed daemon must be reclaimed, a live daemon must
     not be displaced, and a non-socket file must never be deleted *)
  let socket = tmpsock () in
  (* bind a socket and close the fd without unlinking: the file remains
     but nothing listens — exactly what a crashed daemon leaves behind *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket);
  Unix.close stale;
  let srv2 = Server.create ~session:(Longnail.Flow.create_session ()) ~socket () in
  let daemon = Domain.spawn (fun () -> Server.serve srv2) in
  let c = Server.Client.connect ~retries:50 socket in
  let d = done_of (Server.Client.request c {|{"op":"ping"}|}) in
  check_bool "reclaimed and serving" true (Json.get_bool (Json.member "ok" d) = Some true);
  (* a live daemon on the path is an E0911 *)
  (match Server.create ~session:(Longnail.Flow.create_session ()) ~socket () with
  | _ -> Alcotest.fail "expected E0911 for a live daemon"
  | exception Diag.Fatal [ d ] -> check_str "live daemon code" "E0911" d.Diag.code);
  Server.Client.close c;
  Server.stop srv2;
  Domain.join daemon;
  (* a plain file is refused, not unlinked *)
  let plain = Filename.temp_file "longnail-notsock" "" in
  (match Server.create ~session:(Longnail.Flow.create_session ()) ~socket:plain () with
  | _ -> Alcotest.fail "expected E0911 for a non-socket file"
  | exception Diag.Fatal [ d ] -> check_str "non-socket code" "E0911" d.Diag.code);
  check_bool "plain file untouched" true (Sys.file_exists plain);
  Sys.remove plain

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "member access" `Quick test_json_member;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "malformed is E0910" `Quick test_malformed_is_e0910;
          Alcotest.test_case "bad requests" `Quick test_unknown_op_and_missing_fields;
          Alcotest.test_case "unknown core is E0912" `Quick test_unknown_core_is_e0912;
          Alcotest.test_case "unknown knob is E0910" `Quick test_unknown_knob_is_e0910;
          Alcotest.test_case "compile batch" `Quick test_compile_inline;
          Alcotest.test_case "diagnostics on the wire" `Quick
            test_compile_diagnostics_on_wire;
          Alcotest.test_case "lint" `Quick test_lint_op;
        ] );
      ( "socket",
        [
          Alcotest.test_case "roundtrip + isolation" `Quick test_socket_roundtrip;
          Alcotest.test_case "two clients + shutdown" `Quick
            test_socket_two_clients_and_shutdown;
          Alcotest.test_case "stale socket reclaimed" `Quick test_stale_socket_reclaimed;
        ] );
    ]
