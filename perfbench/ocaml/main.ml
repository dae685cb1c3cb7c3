(* The benchmark executable. Normally started by perfbench/run.py, which
   builds it and passes the paths below:

     main.exe --workload matrix|replay|serve --seed N --seconds S --trace 0|1
              --pas-tool PATH --scratch DIR [--reference FILE] [--commit ID]
     main.exe --record matrix|replay --seeds A-B    (print reference digests)
     main.exe --list-layers | --list-e2e             (metric names, units)

   The last line of a run's output is the JSON result. *)

open Perfbench

let workloads = [ ("matrix", Wl_matrix.run); ("replay", Wl_replay.run); ("serve", Wl_serve.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 --pas-tool PATH --scratch DIR \
     [--reference FILE] [--commit ID]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [ ("--list-layers" | "--list-e2e") as k ] ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) "1"
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  tbl

let env_stamp (b : Bench.ctx) ~commit =
  Util.json_object
    [
      ("workload", Util.json_string b.workload);
      ("seed", string_of_int b.seed);
      ("seconds", string_of_int b.seconds);
      ("trace", if b.trace then "1" else "0");
      ("nproc", string_of_int (Util.nproc ()));
      ("jobs", string_of_int b.jobs);
      ("ocaml", Util.json_string Sys.ocaml_version);
      ("commit", Util.json_string commit);
      ("cpu", Util.json_string (Util.cpu_model ()));
    ]

let print_metrics kind ms =
  List.iter
    (fun (x : Bench.metric) ->
      Bench.say "%s %s %s %s" kind x.name (Util.json_float x.value) x.unit_)
    ms

let result_line ~correct ~attempted ~failed (ms : Bench.metric list) =
  Util.json_object
    [
      ("correct", if correct then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        Util.json_object
          (List.map
             (fun (x : Bench.metric) ->
               (* An unmeasured value is reported as 0 in a result marked
                  incorrect, so the line stays valid JSON. *)
               let v = if Float.is_finite x.value then x.value else 0. in
               ( x.name,
                 Util.json_object
                   [ ("value", Util.json_float v); ("unit", Util.json_string x.unit_) ] ))
             ms) );
    ]

let run args =
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let f = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let trace = get "trace" = "1" in
  let b =
    {
      Bench.workload;
      seed = int_of_string (get "seed");
      seconds = max 1 (int_of_string (get "seconds"));
      trace;
      jobs = Util.nproc ();
      spans = Spans.create ~on:trace;
      pas_tool = get "pas-tool";
      self_exe = Sys.executable_name;
      scratch = get "scratch";
      reference =
        (match Hashtbl.find_opt args "reference" with
        | Some p -> Reference.load p
        | None -> Reference.empty ());
    }
  in
  let commit = Option.value (Hashtbl.find_opt args "commit") ~default:"unknown" in
  Bench.say "env %s" (env_stamp b ~commit);
  let origin = Util.now_s () in
  let o = f b in
  List.iter (Bench.say "check %s") o.notes;
  let ratio = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  print_metrics "named" (Bench.m "failed_ratio" ratio "ratio" :: o.named);
  let ms = if trace then o.layers else o.e2e in
  if trace then begin
    print_metrics "layer" o.layers;
    List.iter
      (fun (l, s) -> Bench.say "span-self %s %s s" l (Util.json_float s))
      (Spans.self_by_layer b.spans);
    let path = Filename.concat b.scratch (Printf.sprintf "trace-%s-%d.jsonl" workload b.seed) in
    Spans.write b.spans ~path ~origin;
    Bench.say "spans %d written to %s" (Spans.count b.spans) path
  end
  else print_metrics "metric" o.e2e;
  let finite = List.for_all (fun (x : Bench.metric) -> Float.is_finite x.value) ms in
  if not finite then Bench.say "check some metric could not be measured";
  let correct = o.failed = 0 && finite && o.attempted > 0 in
  print_endline (result_line ~correct ~attempted:(max 1 o.attempted) ~failed:o.failed ms)

let record args =
  let workload = Hashtbl.find args "record" in
  let lo, hi = Scanf.sscanf (Hashtbl.find args "seeds") "%d-%d" (fun a b -> (a, b)) in
  for seed = lo to hi do
    let digest =
      match workload with
      | "matrix" ->
        Wl_matrix.digest
          (Cachesec_experiments.Validation.cells
             (Cachesec_runtime.Run.make ~jobs:(Util.nproc ()) ~quick:true ~seed ()))
      | "replay" ->
        let b =
          {
            Bench.workload;
            seed;
            seconds = 1;
            trace = false;
            jobs = 1;
            spans = Spans.create ~on:false;
            pas_tool = "";
            self_exe = "";
            scratch = "";
            reference = Reference.empty ();
          }
        in
        let samples = Wl_replay.pass b (Wl_replay.cells (Inputs.replay_traces seed)) in
        Inputs.digest_lines (List.map (fun s -> s.Wl_replay.line) samples)
      | _ -> usage ()
    in
    Printf.printf "%s %d %s\n%!" workload seed digest
  done

let () =
  Setup_probe.child_entry ();
  let args = parse Sys.argv in
  if Hashtbl.mem args "list-layers" then
    List.iter (fun (n, u, better) -> Printf.printf "%s %s %s\n" n u better) Layers.names
  else if Hashtbl.mem args "list-e2e" then List.iter print_endline Bench.e2e_names
  else if Hashtbl.mem args "record" then record args
  else run args
