type severity = Error | Warning | Note

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

type span = {
  sp_file : string;
  sp_line : int;
  sp_col : int;
  sp_end_line : int;
  sp_end_col : int;
}

let point ~file ~line ~col =
  { sp_file = file; sp_line = line; sp_col = col; sp_end_line = line; sp_end_col = col }

let span_is_valid s = s.sp_file <> "" && s.sp_file <> "<unknown>" && s.sp_line >= 1 && s.sp_col >= 1

let pp_span ppf s = Format.fprintf ppf "%s:%d:%d" s.sp_file s.sp_line s.sp_col

type label = { lb_span : span; lb_text : string }

type t = {
  severity : severity;
  code : string;
  message : string;
  span : span option;
  labels : label list;
  notes : string list;
}

let make ?(severity = Error) ?span ?(labels = []) ?(notes = []) ~code message =
  { severity; code; message; span; labels; notes }

let errorf ?span ?labels ?notes ~code fmt =
  Format.kasprintf (fun message -> make ?span ?labels ?notes ~code message) fmt

exception Fatal of t list

let () =
  Printexc.register_printer (function
    | Fatal ds ->
        Some
          (Printf.sprintf "Diag.Fatal [%s]"
             (String.concat "; "
                (List.map (fun d -> Printf.sprintf "%s: %s" d.code d.message) ds)))
    | _ -> None)

let fatal d = raise (Fatal [ d ])

let fatalf ?span ?labels ?notes ~code fmt =
  Format.kasprintf (fun message -> fatal (make ?span ?labels ?notes ~code message)) fmt

(* ---- collector ---- *)

type collector = { mutable rev : t list }

let collector () = { rev = [] }
let add c d = c.rev <- d :: c.rev
let has_errors c = List.exists (fun d -> d.severity = Error) c.rev
let to_list c = List.rev c.rev

(* ---- error-code registry ---- *)

let all_codes =
  [
    ("E0002", "syntax error");
    ("E0101", "unknown identifier");
    ("E0102", "type mismatch or lossy implicit conversion");
    ("E0103", "invalid assignment target");
    ("E0104", "invalid range bounds");
    ("E0105", "function call error");
    ("E0106", "statement not allowed in this context");
    ("E0107", "instruction encoding error");
    ("E0108", "redeclaration");
    ("E0109", "type error");
    ("E0200", "elaboration error");
    ("E0201", "unresolved import");
    ("E0202", "unknown instruction set or target");
    ("E0203", "cyclic inheritance");
    ("E0204", "constant evaluation error");
    ("E0205", "invalid architectural state declaration");
    ("E0301", "HLIR lowering error");
    ("E0302", "LIL legalization error");
    ("E0303", "sub-interface used more than once");
    ("E0401", "scheduling infeasible");
    ("E0402", "core lacks required interface");
    ("E0501", "hardware generation error");
    ("E0502", "SCAIE-V integration error");
    ("E0510", "malformed IR operation");
    ("E0511", "SSA structure violation");
    ("E0512", "pass produced invalid IR");
    ("E0520", "netlist: multiple drivers");
    ("E0521", "netlist: combinational cycle");
    ("E0522", "netlist: undefined signal");
    ("E0530", "translation validation failed: optimized IR is not equivalent");
    ("E0601", "assembly error");
    ("E0602", "program did not halt within the instruction budget");
    ("E0603", "engine does not model this core");
    ("E0901", "internal error");
    ("E0902", "conflicting compile options");
    ("E0903", "lowering invariant violation");
    ("E0904", "solver iteration budget exhausted");
    ("E0910", "malformed serve request");
    ("E0911", "serve transport error");
    ("E0912", "unknown core in serve request");
    ("E0913", "unknown emission backend");
    ("W1001", "dead assignment: computed value is never used");
    ("W1002", "unused encoding field");
    ("W1003", "unused architectural register");
    ("W1004", "branch condition is provably constant");
    ("W1005", "shift amount provably >= operand width");
    ("W1006", "local read before any assignment");
    ("W1007", "instruction writes no architectural state");
    ("W1008", "architectural write provably truncates its value");
    ("W1009", "comparison is provably constant");
    ("W1010", "result bits can never toggle");
  ]

let describe code = List.assoc_opt code all_codes
let is_registered code = List.mem_assoc code all_codes

(* Longer-form guidance for [diag --explain CODE]; codes without an entry
   get only the registry description. *)
let explain_notes = function
  | "E0512" ->
      [
        "raised by the --verify-each sanitizer when an optimization pass leaves the IR \
         structurally invalid";
        "the message names the offending pass";
      ]
  | "E0530" ->
      [
        "raised by the translation validator guarding the --narrow=on rewrites: the \
         optimized graph disagreed with the original on a concrete input vector";
        "the message names the pass and the counterexample assignment";
        "see docs/NARROWING.md for the validation protocol";
      ]
  | "E0602" ->
      [
        "a program halts at EBREAK; a loop that never exits, or a branch or jump to its \
         own address (the `j .` spin), runs until the budget ends";
        "each engine has a fixed budget, counted in instructions (cost, rtl-loop) or \
         cycles (pipeline); the message names it";
      ]
  | "E0902" -> [ "the compile request mixed options that cannot be combined" ]
  | "W1004" -> [ "the interval analysis proved the condition constant on every path" ]
  | "W1008" ->
      [
        "the value written to architectural state passes through a narrowing cast, and \
         its proven interval never fits the destination width";
      ]
  | "W1009" ->
      [
        "the bit-level known-bits analysis decided the comparison where the intervals \
         alone could not (see docs/NARROWING.md)";
      ]
  | "W1010" ->
      [
        "some bits of an arithmetic result are proven constant beyond what the value's \
         range explains — the datapath is wider than the computation";
        "--narrow=on removes such bits mechanically";
      ]
  | _ -> []

(* ---- source registry ---- *)

let sources : (string, string) Hashtbl.t = Hashtbl.create 7

let register_source ~file src = Hashtbl.replace sources file src
let lookup_source ~file = Hashtbl.find_opt sources file

let source_line ~file ~line =
  match lookup_source ~file with
  | None -> None
  | Some src ->
      if line < 1 then None
      else
        let n = String.length src in
        let rec seek pos ln =
          if ln = line then
            let e = match String.index_from_opt src pos '\n' with Some e -> e | None -> n in
            Some (String.sub src pos (e - pos))
          else
            match String.index_from_opt src pos '\n' with
            | Some e when e + 1 <= n -> seek (e + 1) (ln + 1)
            | _ -> None
        in
        if n = 0 then None else seek 0 1

(* ---- text rendering ---- *)

let snippet ppf span ~text =
  match source_line ~file:span.sp_file ~line:span.sp_line with
  | None -> ()
  | Some line_text ->
      let gutter = string_of_int span.sp_line in
      let pad = String.make (String.length gutter) ' ' in
      Format.fprintf ppf "@,  %s | %s" gutter line_text;
      let col = max 1 span.sp_col in
      (* column is 1-based; expand to the span width when it ends on the
         same line *)
      let width =
        if span.sp_end_line = span.sp_line && span.sp_end_col > span.sp_col then
          span.sp_end_col - span.sp_col
        else 1
      in
      let carets = String.make (max 1 width) '^' in
      let indent = String.make (col - 1) ' ' in
      if text = "" then Format.fprintf ppf "@,  %s | %s%s" pad indent carets
      else Format.fprintf ppf "@,  %s | %s%s %s" pad indent carets text

let render_text ppf d =
  Format.pp_open_vbox ppf 0;
  (match d.span with
  | Some s when span_is_valid s -> Format.fprintf ppf "%a: " pp_span s
  | _ -> ());
  Format.fprintf ppf "%s[%s]: %s" (severity_to_string d.severity) d.code d.message;
  (match d.span with Some s when span_is_valid s -> snippet ppf s ~text:"" | _ -> ());
  List.iter
    (fun l ->
      if span_is_valid l.lb_span then begin
        Format.fprintf ppf "@,  --> %a: %s" pp_span l.lb_span l.lb_text;
        snippet ppf l.lb_span ~text:""
      end
      else Format.fprintf ppf "@,  --> %s" l.lb_text)
    d.labels;
  List.iter (fun n -> Format.fprintf ppf "@,  note: %s" n) d.notes;
  Format.pp_close_box ppf ()

let render_all ppf ds =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i d ->
      if i > 0 then Format.pp_print_cut ppf ();
      render_text ppf d)
    ds;
  Format.pp_close_box ppf ()

let to_string d = Format.asprintf "%a" render_text d

(* ---- JSON rendering ---- *)

let json ds =
  let span s =
    Json.Obj
      [
        ("file", Json.Str s.sp_file);
        ("line", Json.int s.sp_line);
        ("col", Json.int s.sp_col);
        ("end_line", Json.int s.sp_end_line);
        ("end_col", Json.int s.sp_end_col);
      ]
  in
  let diag d =
    Json.Obj
      [
        ("severity", Json.Str (severity_to_string d.severity));
        ("code", Json.Str d.code);
        ("message", Json.Str d.message);
        ("span", match d.span with Some s when span_is_valid s -> span s | _ -> Json.Null);
        ( "labels",
          Json.Arr
            (List.map
               (fun l -> Json.Obj [ ("span", span l.lb_span); ("text", Json.Str l.lb_text) ])
               d.labels) );
        ("notes", Json.Arr (List.map (fun n -> Json.Str n) d.notes));
      ]
  in
  Json.Obj [ ("diagnostics", Json.Arr (List.map diag ds)) ]

let to_json ds = Json.to_string (json ds)

(* ---- did-you-mean support ---- *)

module Choice = struct
  (* edit distance: insertions, deletions, substitutions *)
  let levenshtein a b =
    let la = String.length a and lb = String.length b in
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)

  let suggest ~names s =
    let budget = max 2 (String.length s / 3) in
    names
    |> List.filter_map (fun n ->
           let d = levenshtein s n in
           if d <= budget || (s <> "" && String.starts_with ~prefix:s n) then Some (d, n) else None)
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 3)
    |> List.map snd

  let hint ~names s =
    match suggest ~names s with
    | [] -> ""
    | [ one ] -> Printf.sprintf "; did you mean '%s'?" one
    | several ->
        Printf.sprintf "; did you mean one of %s?"
          (String.concat ", " (List.map (Printf.sprintf "'%s'") several))

  let parse ~what ~choices s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None ->
        let names = List.map fst choices in
        Error
          (Printf.sprintf "unknown %s '%s' (available: %s)%s" what s (String.concat ", " names)
             (hint ~names s))
end
