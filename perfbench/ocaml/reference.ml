(* Output digests recorded per (workload, seed) from a known-good build
   ([perfbench/reference.txt], lines "<workload> <seed> <digest>").
   A run whose seed has a recorded digest must reproduce it exactly; a
   run on an unrecorded seed falls back to the workload's own
   cross-checks (see README.md, "Output checks"). *)

type t = (string * int, string) Hashtbl.t

let empty () : t = Hashtbl.create 1

let load path : t =
  let t = empty () in
  (match Util.read_file path with
  | None -> ()
  | Some s ->
    List.iter
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ w; seed; digest ] when line.[0] <> '#' -> (
          match int_of_string_opt seed with
          | Some seed -> Hashtbl.replace t (w, seed) digest
          | None -> ())
        | _ -> ())
      (String.split_on_char '\n' s));
  t

let find (t : t) ~workload ~seed = Hashtbl.find_opt t (workload, seed)

(* [Ok note] when the digest matches or nothing is recorded for the seed. *)
let check t ~workload ~seed digest =
  match find t ~workload ~seed with
  | None -> Ok (Printf.sprintf "%s seed %d: no recorded digest; cross-checks only" workload seed)
  | Some d when d = digest ->
    Ok (Printf.sprintf "%s seed %d: digest %s matches the recorded one" workload seed digest)
  | Some d ->
    Error (Printf.sprintf "%s seed %d: digest %s, recorded %s" workload seed digest d)
