(* The one on-disk record format: every BENCH_*.json and telemetry/v1
   file is a JSON object holding a "schema", a few header fields and one
   array of flat objects, written one object per line. Writing keeps
   each caller's key order, spacing and number precision, so re-recorded
   files diff cleanly and line greps keep matching. Reading is by key,
   so key order is not part of the format; a row that does not parse
   comes back as a named [error], never as an exception. *)

type value = String of string | Token of string
type row = (string * value) list

type error =
  | Not_an_object
  | Malformed of int
  | Missing of string
  | Bad_value of string

(* --- writing ---------------------------------------------------------- *)

let str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || c = '\x7f' ->
        Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let int = string_of_int
let fixed digits x = Printf.sprintf "%.*f" digits x

let row fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let schema_key = "schema"

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write ~path ~schema ~header ~array rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iter
    (fun (k, v) -> Printf.bprintf buf "  %s: %s,\n" (str k) v)
    ((schema_key, str schema) :: header);
  Printf.bprintf buf "  %s: [\n" (str array);
  let last = List.length rows - 1 in
  List.iteri
    (fun i r -> Printf.bprintf buf "    %s%s\n" r (if i < last then "," else ""))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)

(* --- reading ---------------------------------------------------------- *)

exception Fail of int

let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

(* A bare value (a number or a JSON literal) runs up to a delimiter. *)
let is_token_char c = not (is_ws c || String.contains ",:{}[]\"" c)
let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let escapes =
  [ ('"', '"'); ('\\', '\\'); ('/', '/'); ('n', '\n'); ('r', '\r');
    ('t', '\t'); ('b', '\b'); ('f', '\012') ]

let parse_row line =
  let n = String.length line and pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let fail () = raise (Fail !pos) in
  let eat c = if peek () = Some c then incr pos else fail () in
  let skip_ws () = while !pos < n && is_ws line.[!pos] do incr pos done in
  let unicode () =
    if !pos + 4 > n || not (String.for_all is_hex (String.sub line !pos 4))
    then fail ();
    let u = int_of_string ("0x" ^ String.sub line !pos 4) in
    if not (Uchar.is_valid u) then fail ();
    pos := !pos + 4;
    Uchar.of_int u
  in
  let string () =
    eat '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match Option.bind (peek ()) (fun c -> List.assoc_opt c escapes) with
        | Some c -> incr pos; Buffer.add_char buf c
        | None -> eat 'u'; Buffer.add_utf_8_uchar buf (unicode ()));
        go ()
      | Some c -> incr pos; Buffer.add_char buf c; go ()
      | None -> fail ()
    in
    go ();
    Buffer.contents buf
  in
  let value () =
    match peek () with
    | Some '"' -> String (string ())
    | Some c when is_token_char c ->
      let start = !pos in
      while !pos < n && is_token_char line.[!pos] do incr pos done;
      Token (String.sub line start (!pos - start))
    | Some _ | None -> fail ()
  in
  let rec fields acc =
    let k = string () in
    skip_ws (); eat ':'; skip_ws ();
    let acc = (k, value ()) :: acc in
    skip_ws ();
    if peek () = Some ',' then (incr pos; skip_ws (); fields acc)
    else (eat '}'; List.rev acc)
  in
  skip_ws ();
  if peek () <> Some '{' then Error Not_an_object
  else
    try
      incr pos;
      skip_ws ();
      let r = if peek () = Some '}' then (incr pos; []) else fields [] in
      skip_ws ();
      if peek () = Some ',' then (incr pos; skip_ws ());
      if !pos < n then fail ();
      Ok r
    with Fail p -> Error (Malformed p)

exception Field of error

let decode f r = match f r with v -> Ok v | exception Field e -> Error e
let bad_value k = raise (Field (Bad_value k))

let get conv r k =
  match List.assoc_opt k r with
  | None -> raise (Field (Missing k))
  | Some v -> ( match conv v with Some x -> x | None -> bad_value k)

let get_str = get (function String s -> Some s | Token _ -> None)
let get_int = get (function Token t -> int_of_string_opt t | String _ -> None)
let get_float = get (function Token t -> float_of_string_opt t | String _ -> None)
let default d getter r k = if List.mem_assoc k r then getter r k else d

type doc = { schema : string option; header : row; rows : (row, error) result list }

(* Rows are the lines that open an object; header fields are the
   ["key": value] lines around the array. *)
let read ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    let lines = List.map String.trim (String.split_on_char '\n' text) in
    let starts c l = String.length l > 1 && l.[0] = c in
    let header_field l =
      let len = String.length l - if String.ends_with ~suffix:"," l then 1 else 0 in
      if not (starts '"' l) then []
      else Result.value ~default:[] (parse_row ("{" ^ String.sub l 0 len ^ "}"))
    in
    let header = List.concat_map header_field lines in
    let schema =
      match List.assoc_opt schema_key header with
      | Some (String s) -> Some s
      | Some (Token _) | None -> None
    in
    Some
      {
        schema;
        header = List.remove_assoc schema_key header;
        rows =
          List.filter_map
            (fun l -> if starts '{' l then Some (parse_row l) else None)
            lines;
      }

let read_rows ~path of_row =
  match read ~path with
  | None -> []
  | Some doc -> List.filter_map (fun r -> Result.(to_option (bind r of_row))) doc.rows
