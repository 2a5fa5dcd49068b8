(* Tests for the longnail serve daemon (lib/server): the shared JSON
   codec (lib/json) it speaks, the protocol step (Server.handle_line, no sockets), and full
   client/server round trips over a real Unix socket — including the
   docs/SERVE.md guarantees that diagnostics ride the wire and that a
   malformed request or failing compile never kills the daemon. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

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
    (Json.get_int (parse_ok (Json.number_to_string 123.0)) = Some 123);
  (* the one number rule: shortest of %.15g/%.16g/%.17g that round-trips,
     and a non-finite value renders as 0 *)
  List.iter
    (fun (f, want) -> check_str want want (Json.number_to_string f))
    [
      (-7.0, "-7");
      (123456789012345.0, "123456789012345");
      (0.1, "0.1");
      (1e-7, "1e-07");
      (0.1 +. 0.2, "0.30000000000000004");
      (1e300, "1e+300");
      (Float.nan, "0");
      (Float.infinity, "0");
      (Float.neg_infinity, "0");
    ];
  check_bool "largest finite parses" true
    (Json.get_float (parse_ok "1.7976931348623157e308") = Some Float.max_float);
  (* a number that overflows to infinity is a parse error at its offset *)
  List.iter
    (fun (src, want) ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" src
      | Error m -> check_str src want m)
    [
      ({|{"id":1e999,"op":"ping"}|}, "number '1e999' is out of range at byte 6");
      ("[0,-1e999]", "number '-1e999' is out of range at byte 3");
    ]

let test_json_escapes () =
  let j = parse_ok {|"tab\there \u0041 end"|} in
  check_bool "escapes decoded" true (Json.get_string j = Some "tab\there A end");
  (* control characters in emitted strings must re-parse *)
  let s = Json.to_string (Json.Str "a\nb\tc\"d\\e\x01f") in
  check_str "escaped form" {|"a\nb\tc\"d\\e\u0001f"|} s;
  check_bool "re-parses" true (Json.get_string (parse_ok s) = Some "a\nb\tc\"d\\e\x01f");
  (* \u escapes: upper- and lower-case hex, 2- and 3-byte UTF-8, and a
     surrogate pair as one 4-byte character (not two CESU-8 halves) *)
  List.iter
    (fun (src, want) -> check_str src want (Option.get (Json.get_string (parse_ok src))))
    [
      ({|"\u00e9\u00E9"|}, "\xc3\xa9\xc3\xa9");
      ({|"\u20ac"|}, "\xe2\x82\xac");
      ({|"\uD83D\uDE00"|}, "\xf0\x9f\x98\x80");
      ({|"x\ud83d\ude00y"|}, "x\xf0\x9f\x98\x80y");
      ({|"\uDBFF\uDFFF"|}, "\xf4\x8f\xbf\xbf");
    ]

let test_json_rejects () =
  let bad =
    [
      "{";
      "[1,";
      {|{"a"}|};
      "tru";
      "";
      "1 2";
      {|"unterminated|};
      (* \u needs exactly four hex digits *)
      {|"\u00_4"|};
      {|"\u+123"|};
      {|"\u12"|};
      {|"\u12g4"|};
      (* lone or mismatched surrogates *)
      {|"\uDE00"|};
      {|"\uD83D"|};
      {|"\uD83Dx"|};
      {|"\uD83D\u0041"|};
      {|"\uD83D\uD83D"|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    bad

(* parse (to_string v) = Ok v over generated values: finite floats of
   every magnitude, strings over every control byte plus quote,
   backslash and multi-byte UTF-8, nested arrays and objects *)
let prop_json_roundtrip =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        float_range (-1e6) 1e6;
        map (fun f -> f *. 1e-300) (float_range (-1.0) 1.0);
        map (fun f -> f *. 1e300) (float_range (-1.0) 1.0);
        oneofl [ 0.1; 1e15; 2.0 ** 53.0; Float.max_float; -.Float.min_float; 5e-324 ];
      ]
  in
  let piece =
    oneof
      [
        map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
        oneofl [ "\""; "\\"; "/"; "a"; "Z"; " "; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\x7f" ];
      ]
  in
  let str = map (String.concat "") (list_size (int_range 0 12) piece) in
  let value =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              pure Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun f -> Json.Num f) num;
              map (fun s -> Json.Str s) str;
            ]
        in
        if depth = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (depth - 1)));
              map
                (fun l -> Json.Obj l)
                (list_size (int_range 0 4) (pair str (self (depth - 1))));
            ])
      3
  in
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string value)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

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
  (* an id that overflows to infinity is malformed too: its reply echoes
     "id":null and parses again, never an "inf" token *)
  List.iter
    (fun line ->
      let j = one_line (Server.handle_line srv line) in
      check_bool "not ok" true (Json.get_bool (Json.member "ok" j) = Some false);
      check_bool "id is null" true (Json.member "id" j = Json.Null);
      Alcotest.(check (list string)) line [ "E0910" ] (diag_codes j);
      (* the daemon still answers afterwards: per-request isolation *)
      let j = one_line (Server.handle_line srv {|{"op":"ping"}|}) in
      check_bool "still alive" true (Json.get_bool (Json.member "ok" j) = Some true))
    [ {|{"op":|}; {|{"id":1e999,"op":"ping"}|}; {|{"id":-1e999,"op":"ping"}|} ]

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
  expect_e0910 {|{"op":"compile","isax":"dotprod","core":"vexriscv","knobs":{"store":"/tmp/x"}}|};
  (* a cycle time must be finite, over the wire as on the CLI *)
  List.iter
    (fun v ->
      expect_e0910
        (Printf.sprintf
           {|{"op":"compile","isax":"dotprod","core":"vexriscv","knobs":{"cycle-time":%s}}|} v))
    [ {|"inf"|}; {|"-inf"|}; {|"nan"|}; "1e999" ]

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

(* every response line the daemon writes must parse with the same codec *)
let test_every_reply_parses () =
  let srv = make_server () in
  (* a load + multiply chain into PC misses the WrPC window at a tight
     cycle time: per-target E0401 events *)
  let infeasible =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Num 3.0);
           ("op", Json.Str "compile");
           ( "text",
             Json.Str
               {|import "RV32I.core_desc"
InstructionSet T extends RV32I {
  instructions {
    LONGJMP {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b111 :: 5'b00000 :: 7'b1111011;
      behavior: {
        unsigned<32> a = MEM[X[rs1]+3:X[rs1]];
        unsigned<32> b = MEM2;
        PC = (unsigned<32>)(a * a * b * b);
      }
    }
  }
  architectural_state { register unsigned<32> MEM2; }
}|}
           );
           ("target", Json.Str "T");
           ("cores", Json.Arr [ Json.Str "vexriscv"; Json.Str "orca" ]);
           ("knobs", Json.Obj [ ("cycle-time", Json.Num 0.9); ("delay", Json.Str "physical") ]);
         ])
  in
  let corpus =
    [
      {|{"id":1,"op":"ping"}|};
      {|{"id":"s","op":"stats"}|};
      {|{"id":[1,{"k":null}],"op":"compile","isax":"dotprod","core":"vexriscv","profile":true}|};
      infeasible;
      {|{"id":7,"op":"compile","text":"InstructionSet X {","target":"X","core":"vexriscv"}|};
      {|{"id":4,"op":"lint","isax":"sbox"}|};
      {|{"id":5,"op":"dse","isax":"dotprod","core":"vexriscv"}|};
      {|{"op":|};
      {|{"id":6,"op":"compile","isax":"dotprod","core":"vexriscv","knobs":{"sheduler":"asap"}}|};
      {|{"id":1e999,"op":"ping"}|};
      {|{"id":"\u00e9\uD83D\uDE00\u0001","op":"nope"}|};
    ]
  in
  let failed_targets = ref 0 in
  List.iter
    (fun req ->
      let lines = Server.handle_line srv req in
      check_bool (req ^ " answers") true (lines <> []);
      List.iter
        (fun l ->
          match Json.parse l with
          | Ok j ->
              check_str (req ^ " re-renders identically") l (Json.to_string j);
              if
                Json.get_string (Json.member "event" j) = Some "target"
                && Json.get_bool (Json.member "ok" j) = Some false
              then incr failed_targets
          | Error m -> Alcotest.failf "reply to %s does not parse (%s): %s" req m l)
        lines;
      let last = parse_ok (List.nth lines (List.length lines - 1)) in
      check_bool (req ^ " ends with done") true
        (Json.get_string (Json.member "event" last) = Some "done"))
    corpus;
  check_bool "the corpus holds failing targets" true (!failed_targets > 0)

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
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
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
          Alcotest.test_case "every reply parses" `Quick test_every_reply_parses;
        ] );
      ( "socket",
        [
          Alcotest.test_case "roundtrip + isolation" `Quick test_socket_roundtrip;
          Alcotest.test_case "two clients + shutdown" `Quick
            test_socket_two_clients_and_shutdown;
          Alcotest.test_case "stale socket reclaimed" `Quick test_stale_socket_reclaimed;
        ] );
    ]
