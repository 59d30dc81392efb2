type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialization *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_nan f || Float.abs f = infinity then Buffer.add_string buf "null"
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Fail of string * int

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = pos := !pos + 1 in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let k = String.length lit in
    if !pos + k <= n && String.sub s !pos k = lit then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | None -> fail "invalid \\u escape"
    | Some v ->
        pos := !pos + 4;
        v
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> advance (); Buffer.add_char buf '"'
               | '\\' -> advance (); Buffer.add_char buf '\\'
               | '/' -> advance (); Buffer.add_char buf '/'
               | 'n' -> advance (); Buffer.add_char buf '\n'
               | 't' -> advance (); Buffer.add_char buf '\t'
               | 'r' -> advance (); Buffer.add_char buf '\r'
               | 'b' -> advance (); Buffer.add_char buf '\b'
               | 'f' -> advance (); Buffer.add_char buf '\012'
               | 'u' ->
                   advance ();
                   let code = hex4 () in
                   (* Combine a surrogate pair when one follows. *)
                   if
                     code >= 0xD800 && code <= 0xDBFF
                     && !pos + 1 < n
                     && s.[!pos] = '\\'
                     && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let low = hex4 () in
                     if low >= 0xDC00 && low <= 0xDFFF then
                       add_utf8 buf
                         (0x10000
                         + ((code - 0xD800) lsl 10)
                         + (low - 0xDC00))
                     else begin
                       add_utf8 buf code;
                       add_utf8 buf low
                     end
                   end
                   else add_utf8 buf code
               | _ -> fail "unknown escape");
            go ()
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | c ->
            advance ();
            Buffer.add_char buf c;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d = ref 0 in
      while
        !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do
        advance ();
        d := !d + 1
      done;
      !d
    in
    if digits () = 0 then fail "malformed number";
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      if digits () = 0 then fail "malformed fraction"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        if digits () = 0 then fail "malformed exponent"
    | _ -> ());
    let str = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string str)
    else
      match int_of_string_opt str with
      | Some i -> Int i
      | None -> Float (float_of_string str)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_lit ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let pair () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            (k, v)
          in
          let items = ref [ pair () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := pair () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.of_string_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let as_string = function String s -> Some s | _ -> None
let as_int = function Int i -> Some i | _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let as_list = function List xs -> Some xs | _ -> None
let as_obj = function Obj kvs -> Some kvs | _ -> None
