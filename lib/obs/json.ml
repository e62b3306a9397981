type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then begin
        (* Shortest representation that round-trips (timestamps need more
           than %g's default 6 significant digits). *)
        let s = Printf.sprintf "%.12g" f in
        let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
        Buffer.add_string buf s
      end
      else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          render buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf key;
          Buffer.add_char buf ':';
          render buf value)
        fields;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 128 in
  render buf json;
  Buffer.contents buf

(* Integral values below 1e15 as integers ("1000000000000", not
   "1e+12"), as the Prometheus exposition, the time-series export and the
   history ledger render numbers. Zero stays a [Float] so [-0.] keeps its
   sign. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 && f <> 0.0 then Int (int_of_float f)
  else Float f

(* Recursive-descent parser for the same dialect [render] emits (plus
   insignificant whitespace): every JSON artifact this repository writes
   is read back through it, without hauling in a JSON dependency.
   Numbers without '.', 'e' or 'E' parse as [Int]; everything else as
   [Float].

   The parser also guards the network boundary (pi_serve feeds it request
   bodies from untrusted clients), so hostility is bounded up front: input
   larger than [max_bytes] or nested deeper than [max_depth] is an [Error],
   never a stack overflow, and duplicate object keys are rejected rather
   than silently resolved — two values for one key means the sender and
   receiver would disagree about which one won. *)
exception Parse_error of string

let default_max_bytes = 16 * 1024 * 1024
let default_max_depth = 256

let parse ?(max_bytes = default_max_bytes) ?(max_depth = default_max_depth) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> incr pos
    | Some d -> fail "expected %C, found %C" c d
    | None -> fail "expected %C, found end of input" c
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail "invalid literal"
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "invalid \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents buf
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code =
                (hex_digit s.[!pos + 1] lsl 12)
                lor (hex_digit s.[!pos + 2] lsl 8)
                lor (hex_digit s.[!pos + 3] lsl 4)
                lor hex_digit s.[!pos + 4]
              in
              Buffer.add_utf_8_uchar buf (Uchar.of_int code);
              pos := !pos + 5
          | c -> fail "invalid escape \\%C" c);
          go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      incr pos
    done;
    let token = String.sub s start (!pos - start) in
    let looks_int =
      not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) token)
    in
    if looks_int then
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
          (* out of int range: keep the value, lose the intness *)
          match float_of_string_opt token with
          | Some f -> Float f
          | None -> fail "invalid number %S" token)
    else
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> fail "invalid number %S" token
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        if depth >= max_depth then fail "nesting deeper than %d" max_depth;
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let item = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (item :: acc)
            | Some ']' ->
                incr pos;
                List (List.rev (item :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        if depth >= max_depth then fail "nesting deeper than %d" max_depth;
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          (* Key membership via a table, not a list scan: an object with a
             hundred thousand keys must stay linear, not quadratic. *)
          let seen = Hashtbl.create 8 in
          let field () =
            skip_ws ();
            let key = parse_string () in
            if Hashtbl.mem seen key then fail "duplicate key %S" key;
            Hashtbl.replace seen key ();
            skip_ws ();
            expect ':';
            (key, parse_value (depth + 1))
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields (f :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev (f :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
        end
    | Some c -> fail "unexpected character %C" c
  in
  match
    if max_depth < 1 then fail "max_depth < 1";
    if n > max_bytes then fail "input larger than %d bytes (%d)" max_bytes n;
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------------- Field access ---------------- *)

exception Type_error of string

let member name = function
  | Obj fields -> ( match List.assoc_opt name fields with Some v -> v | None -> Null)
  | _ -> Null

let type_error name what = raise (Type_error (Printf.sprintf "%S: expected %s" name what))

let get_int name j = match member name j with Int i -> i | _ -> type_error name "an integer"

(* A float that happens to be integral renders without a decimal point and
   parses back as [Int]: numeric fields accept both. *)
let get_float name j =
  match member name j with
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> type_error name "a number"

let get_string name j = match member name j with String s -> s | _ -> type_error name "a string"
let get_bool name j = match member name j with Bool b -> b | _ -> type_error name "a bool"
let get_list name j = match member name j with List l -> l | _ -> type_error name "a list"
let get_obj name j = match member name j with Obj f -> f | _ -> type_error name "an object"
let opt get name j = match member name j with Null -> None | _ -> Some (get name j)
