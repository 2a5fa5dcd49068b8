(* The one JSON codec (see the .mli): a value type, a compact
   single-Buffer writer and a recursive-descent parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---- writer ---- *)

let number_to_string f =
  if not (Float.is_finite f) then "0"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let hex_digits = "0123456789abcdef"

(* Escape [s] straight into [b], copying unescaped runs in one go. *)
let add_quoted b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  let flush i = if i > !start then Buffer.add_substring b s !start (i - !start) in
  String.iteri
    (fun i c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        flush i;
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c ->
            Buffer.add_string b "\\u00";
            Buffer.add_char b hex_digits.[Char.code c lsr 4];
            Buffer.add_char b hex_digits.[Char.code c land 0xF]);
        start := i + 1
      end)
    s;
  flush (String.length s);
  Buffer.add_char b '"'

let write_items b opener closer item l =
  Buffer.add_char b opener;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    l;
  Buffer.add_char b closer

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s -> add_quoted b s
  | Arr l -> write_items b '[' ']' (write b) l
  | Obj l ->
      write_items b '{' '}'
        (fun (k, v) ->
          add_quoted b k;
          Buffer.add_char b ':';
          write b v)
        l

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- parser ---- *)

exception Parse_error of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected '%s')" lit)
  in
  (* exactly four hex digits after "\u" *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex = String.sub s !pos 4 in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all is_hex hex) then fail "invalid \\u escape (expected four hex digits)";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let unicode_escape buf =
    let code =
      match hex4 () with
      | lo when lo >= 0xDC00 && lo <= 0xDFFF -> fail "lone low surrogate in \\u escape"
      | hi when hi >= 0xD800 && hi <= 0xDBFF ->
          if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
            fail "lone high surrogate in \\u escape";
          pos := !pos + 2;
          let lo = hex4 () in
          if lo < 0xDC00 || lo > 0xDFFF then fail "high surrogate not followed by a low surrogate";
          0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      | c -> c
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' -> unicode_escape buf
           | _ -> fail "invalid escape character");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let fail_at msg = raise (Parse_error (msg, start)) in
    match float_of_string_opt tok with
    | Some f when Float.is_finite f -> Num f
    | Some _ -> fail_at (Printf.sprintf "number '%s' is out of range" tok)
    | None -> fail_at (Printf.sprintf "invalid number '%s'" tok)
  in
  (* the comma-separated items of an array or object, after its opener *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go acc
        | Some c when c = close ->
            advance ();
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' -> Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after the JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, p) -> Error (Printf.sprintf "%s at byte %d" msg p)

(* ---- accessors ---- *)

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let get_string = function Str s -> Some s | _ -> None

let get_int = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Some (int_of_float f)
  | _ -> None

let get_float = function Num f -> Some f | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function Arr l -> Some l | _ -> None
