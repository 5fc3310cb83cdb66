(* A deliberately small JSON value type, printer and parser. The telemetry
   layer both writes JSON (metric snapshots, JSONL traces, the catapult
   exporter) and reads it back (`boundedreg trace summary`, the exporter
   well-formedness tests), and the project's dependency set has no JSON
   library — so this module is the single place the wire format lives.
   The parser accepts full JSON; the printer never emits anything the
   parser rejects (non-finite floats are printed as null). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_to b s =
  Buffer.add_char b '"';
  if not (String.exists (fun c -> c = '"' || c = '\\' || c < ' ') s) then
    Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
      else Buffer.add_string b "null"
  | Str s -> escape_to b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_to b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List vs -> Some vs | _ -> None
let member_int key j = Option.bind (member key j) to_int
let member_str key j = Option.bind (member key j) to_str

(* {2 Parsing} *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
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
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex = String.sub s !pos 4 in
    match int_of_string_opt ("0x" ^ hex) with
    | Some v when not (String.contains hex '_') ->
        pos := !pos + 4;
        v
    | _ -> fail "bad \\u escape"
  in
  (* A \u escape, a surrogate pair combined into one code point. *)
  let unicode_escape () =
    let hi = hex4 () in
    if hi land 0xfc00 = 0xdc00 then fail "unpaired low surrogate";
    if hi land 0xfc00 <> 0xd800 then hi
    else if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo land 0xfc00 <> 0xdc00 then fail "unpaired high surrogate";
      0x10000 + (((hi land 0x3ff) lsl 10) lor (lo land 0x3ff))
    end
    else fail "unpaired high surrogate"
  in
  let parse_string () =
    expect '"';
    (* Fast path: no escape before the closing quote is one slice. *)
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do advance () done;
    if !pos < n && s.[!pos] = '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create 16 in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape";
             match s.[!pos] with
             | ('"' | '\\' | '/') as c -> Buffer.add_char b c; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
                 advance ();
                 Buffer.add_utf_8_uchar b (Uchar.of_int (unicode_escape ()))
             | c -> fail (Printf.sprintf "bad escape %C" c));
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let acc = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            acc := parse_value () :: !acc;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !acc)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let acc = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            acc := field () :: !acc;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !acc)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error e -> Error e
