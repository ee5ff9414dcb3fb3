(* Just enough JSON for the benchmark's own files: BENCHMARK.json and
   the result lines that --json appends. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj (members ())
    | '[' ->
        incr pos;
        Arr (elements ())
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  and members () =
    skip ();
    if !pos < n && s.[!pos] = '}' then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let k = string () in
        expect ':';
        let v = value () in
        skip ();
        if !pos < n && s.[!pos] = ',' then begin
          incr pos;
          go ((k, v) :: acc)
        end
        else begin
          expect '}';
          List.rev ((k, v) :: acc)
        end
      in
      go []
  and elements () =
    skip ();
    if !pos < n && s.[!pos] = ']' then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let v = value () in
        skip ();
        if !pos < n && s.[!pos] = ',' then begin
          incr pos;
          go (v :: acc)
        end
        else begin
          expect ']';
          List.rev (v :: acc)
        end
      in
      go []
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_num = function Num f -> f | _ -> raise (Error "expected a number")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")

(* Metric values are written with every digit (%.17g), so a reread
   value is the measured float exactly. *)
let num f = Printf.sprintf "%.17g" f

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
