type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ----------------------------------------------------------- *)

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

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

type cursor = { s : string; mutable i : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.i))
let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.i >= String.length c.s then fail c "unterminated string";
    let ch = c.s.[c.i] in
    c.i <- c.i + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> begin
      if c.i >= String.length c.s then fail c "unterminated escape";
      let e = c.s.[c.i] in
      c.i <- c.i + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
        if c.i + 4 > String.length c.s then fail c "bad \\u escape";
        let code = int_of_string ("0x" ^ String.sub c.s c.i 4) in
        c.i <- c.i + 4;
        (* ASCII range only; non-ASCII code points round-trip as '?' *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else Buffer.add_char buf '?'
      | _ -> fail c "bad escape");
      go ()
    end
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.i in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && is_num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  let text = String.sub c.s start (c.i - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.i <- c.i + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          items (v :: acc)
        | Some ']' ->
          c.i <- c.i + 1;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.i <- c.i + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.i <- c.i + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some _ -> parse_number c

let parse s =
  let c = { s; i = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.i <> String.length s then fail c "trailing garbage";
  v

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
