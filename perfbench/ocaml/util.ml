(* Timing, order statistics, JSON formatting and /proc readers shared by
   the benchmark's workloads. Nothing here touches the system under test. *)

let now_s () = Int64.to_float (Cachesec_telemetry.Clock.monotonic_ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* --- order statistics --------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Util.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_or_nan = function [] -> nan | xs -> median xs

let min_beyond = 10

(* Nearest-rank percentile: the value at rank ceil(p/100 * n). A tail
   percentile is only worth reporting with at least [min_beyond] samples
   above that rank; with fewer the helper refuses rather than quote a
   number set by a handful of outliers. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    let beyond = n - rank in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" p n
           beyond min_beyond)
    else Ok a.(rank - 1)
  end

(* The highest of [candidates] (descending) that [percentile] accepts,
   with its label; [None] when not even the last is admissible. *)
let tail ?(candidates = [ 99.; 90.; 75. ]) xs =
  List.find_map
    (fun p ->
      match percentile p xs with Ok v -> Some (p, v) | Error _ -> None)
    candidates

(* [tail], or the largest sample (labelled p100) when the run is too
   short for any candidate: tiny smoke runs only. *)
let tail_or_max ?candidates xs =
  match tail ?candidates xs with
  | Some pv -> pv
  | None -> (100., Array.fold_left Float.max neg_infinity (sorted xs))

(* The sorted samples, for the run's notes. *)
let describe xs =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") (sorted xs)))

(* The 90th percentile the end-to-end [op_p90_ms] gates on; in a run too
   short for it (smoke runs) the largest sample stands in. *)
let p90_or_max xs = snd (tail_or_max ~candidates:[ 90. ] xs)

let sum = List.fold_left ( +. ) 0.

(* --- metric names and JSON ------------------------------------------ *)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_string s =
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

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* --- process and host facts ------------------------------------------ *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))

(* VmHWM (peak resident set) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | None -> nan
  | Some s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:nan

let clk_tck = 100.

(* CPU seconds (user + system) of every thread of [pid] except the main
   one — for the PAS daemon, its pool workers. *)
let worker_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tids ->
    Array.fold_left
      (fun acc tid ->
        if tid = string_of_int pid then acc
        else
          match read_file (Printf.sprintf "%s/%s/stat" dir tid) with
          | None -> acc
          | Some s -> (
            (* Fields after the parenthesised command name; utime and
               stime are the 12th and 13th of them. *)
            match String.rindex_opt s ')' with
            | None -> acc
            | Some i ->
              let rest =
                String.split_on_char ' '
                  (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
              in
              let f k = float_of_string (List.nth rest k) in
              acc +. ((f 11 +. f 12) /. clk_tck)))
      0. tids

let nproc () = Domain.recommended_domain_count ()

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:"unknown"

let hex_digest s = Digest.to_hex (Digest.string s)
