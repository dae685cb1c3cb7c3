(* Capture the CURRENT harness's throughput as the regression
   baselines. bench/main.exe compares every later run's
   BENCH_cache.json / BENCH_attacks.json against these files and prints
   per-row speedups (plus the attack-throughput gate), so re-run this
   only when you intend to move the goalposts (e.g. after landing a
   perf PR, to re-baseline for the next one):

     dune exec bench/baseline.exe                        # all sections
     dune exec bench/baseline.exe -- --section cache
     dune exec bench/baseline.exe -- --section attacks \
       --attacks-out bench/BENCH_attacks.baseline.json
     make baseline            # all sections
     make baseline-cache      # any single section

   NOTE: bench/BENCH_cache.seed.json and bench/BENCH_attacks.seed.json
   are NOT re-recorded here — they are the frozen goalposts behind
   bench/main.exe's hard gates (the pre-slab seed engine's numbers for
   "gate bench_cache"; the pre-batching harness's v1 numbers for
   "gate bench_attacks"), and move only with an intentional goalpost
   change committed by hand.

   The e2e section records the sequential-vs-pipelined campaign
   wall-clocks (quick scale) of the host it runs on — including its
   core count, so a later reader can judge what the numbers could
   demonstrate — and the fixed/adaptive arm rows of the adaptive
   bench, in the same file.

   A bare positional PATH is kept as an alias for --cache-out PATH
   (the pre-attack-bench CLI). *)

open Cachesec_experiments

let run_cache ctx ~out =
  let entries = Throughput.bench ctx in
  Throughput.write ~path:out entries;
  print_string (Throughput.render entries);
  Printf.printf "cache baseline written to %s\n%!" out

let run_attacks ctx ~out =
  let entries = Throughput.Attacks.bench ctx in
  Throughput.Attacks.write ~path:out entries;
  print_string (Throughput.Attacks.render entries);
  Printf.printf "attack baseline written to %s\n%!" out

let run_e2e ctx ~out =
  (* jobs:0 = one worker per core, so the baseline records what this
     host can actually demonstrate (its core count rides along in the
     [cores] field). *)
  let ctx = Cachesec_runtime.Run.with_jobs 0 ctx in
  let entries = Throughput.E2e.bench ctx in
  (* Both row kinds, as bench/main.exe writes results/BENCH_e2e.json:
     the adaptive rows feed Adaptive.render's vs-base column. *)
  let adaptive = Throughput.Adaptive.bench ctx in
  Throughput.E2e.write ~adaptive ~path:out entries;
  print_string (Throughput.E2e.render entries);
  print_string (Throughput.Adaptive.render adaptive);
  Printf.printf "e2e baseline written to %s\n%!" out

(* THE sections table: name, default output file, --NAME-out flag,
   runner. Everything else — --section parsing, the usage string,
   --list-sections, the out-flag parser, the Makefile's baseline-%
   targets (which just forward $* as --section NAME) — derives from
   this list, so adding a section here is the whole change. *)
let run_serve ctx ~out =
  let entries = Cachesec_serve.Serve_bench.bench ctx in
  Cachesec_serve.Serve_bench.write ~path:out entries;
  print_string (Cachesec_serve.Serve_bench.render entries);
  Printf.printf "serve baseline written to %s\n%!" out

let sections =
  [
    ("cache", "bench/BENCH_cache.baseline.json", "--cache-out", run_cache);
    ("attacks", "bench/BENCH_attacks.baseline.json", "--attacks-out", run_attacks);
    ("e2e", "bench/BENCH_e2e.baseline.json", "--e2e-out", run_e2e);
    ("serve", "bench/BENCH_serve.baseline.json", "--serve-out", run_serve);
  ]

let section_names = List.map (fun (n, _, _, _) -> n) sections

let usage () =
  Printf.eprintf
    "usage: baseline.exe [--section %s|all] %s [--list-sections] [PATH]\n"
    (String.concat "|" section_names)
    (String.concat " "
       (List.map (fun (_, _, flag, _) -> Printf.sprintf "[%s PATH]" flag)
          sections));
  exit 2

let () =
  (* Serve-bench server children re-exec this executable; intercept the
     sentinel argv before our own flag parsing sees it. *)
  Cachesec_serve.Serve_bench.child_entry ();
  let selected = ref None (* None = all *) in
  let outs =
    List.map (fun (name, default, flag, _) -> (flag, (name, ref default))) sections
  in
  let rec parse = function
    | [] -> ()
    | "--list-sections" :: _ ->
      List.iter print_endline section_names;
      exit 0
    | "--section" :: v :: rest ->
      (match v with
      | "all" -> selected := None
      | v when List.mem v section_names -> selected := Some v
      | v ->
        Printf.eprintf "baseline.exe: unknown section %S (expected %s or all)\n"
          v
          (String.concat ", " section_names);
        usage ());
      parse rest
    | flag :: path :: rest when List.mem_assoc flag outs ->
      snd (List.assoc flag outs) := path;
      parse rest
    | [ path ] when String.length path > 0 && path.[0] <> '-' ->
      snd (List.assoc "--cache-out" outs) := path
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ctx = Cachesec_runtime.Run.default in
  List.iter
    (fun (name, _, flag, run) ->
      let wanted = match !selected with None -> true | Some s -> s = name in
      if wanted then run ctx ~out:!(snd (List.assoc flag outs)))
    sections
