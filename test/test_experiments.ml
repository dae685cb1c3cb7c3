(* Integration tests: the experiment drivers that regenerate the paper's
   tables and figures, run at reduced scale. *)

(* These tests deliberately exercise the deprecated optional-tail
   wrappers alongside the Run.ctx primaries: old-vs-new equivalence is
   part of the API-migration contract. *)
[@@@alert "-deprecated"]

open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Setup ------------------------------------------------------------- *)

let test_setup_engines () =
  List.iter
    (fun spec ->
      let s = Setup.make spec in
      Alcotest.(check int) "attacker pid" 1 s.Setup.attacker_pid;
      Alcotest.(check int) "victim pid" 0
        (Cachesec_attacks.Victim.pid s.Setup.victim))
    Spec.all_paper

let test_setup_deterministic () =
  let r1 =
    let s = Setup.make ~seed:9 Spec.paper_sa in
    Cachesec_attacks.Flush_reload.run ~victim:s.Setup.victim ~attacker_pid:1
      ~rng:s.Setup.rng
      { Cachesec_attacks.Flush_reload.default_config with trials = 100 }
  in
  let r2 =
    let s = Setup.make ~seed:9 Spec.paper_sa in
    Cachesec_attacks.Flush_reload.run ~victim:s.Setup.victim ~attacker_pid:1
      ~rng:s.Setup.rng
      { Cachesec_attacks.Flush_reload.default_config with trials = 100 }
  in
  Alcotest.(check (array (Alcotest.float 1e-12)))
    "same seed, same result" r1.Cachesec_attacks.Flush_reload.scores
    r2.Cachesec_attacks.Flush_reload.scores

(* --- Tables -------------------------------------------------------------- *)

let test_tables_render () =
  let t3 = Tables.table3 () in
  Alcotest.(check bool) "t3 title" true (contains t3 "Table 3");
  Alcotest.(check bool) "t3 sa row" true (contains t3 "SA Cache");
  Alcotest.(check bool) "t3 newcache pas" true (contains t3 "1.95e-3");
  let t5 = Tables.table5 () in
  Alcotest.(check bool) "t5 rf" true (contains t5 "7.75e-3");
  let t6 = Tables.table6 () in
  Alcotest.(check bool) "t6 paper columns" true (contains t6 "paper T1");
  let t7 = Tables.table7 () in
  Alcotest.(check bool) "t7 all rows agree with paper" false (contains t7 "NO")

let test_table6_alt_geometry () =
  let s = Tables.table6_alt_geometry () in
  (* SA at 4 ways: Type 1 PAS = 1/4. *)
  Alcotest.(check bool) "quarter appears" true (contains s "0.25");
  (* RP at 64 sets... at 256 lines / 4 ways = 64 sets: 1/64 * 1/4. *)
  Alcotest.(check bool) "rp value" true (contains s "3.91e-3");
  Alcotest.(check bool) "nomo third" true (contains s "0.333")

let test_table6_csv_rows () =
  let rows = Tables.table6_csv_rows () in
  Alcotest.(check int) "9 x 4 rows" 36 (List.length rows);
  List.iter
    (fun row -> Alcotest.(check int) "4 columns" 4 (List.length row))
    rows

(* --- Figures --------------------------------------------------------------- *)

let test_figure4 () =
  let s = Figures.figure4 () in
  Alcotest.(check bool) "mentions paper value" true (contains s "0.691");
  Alcotest.(check bool) "plots" true (contains s "p5")

let test_figure8 () =
  let s = Figures.figure8 () in
  Alcotest.(check bool) "series names" true
    (contains s "Newcache" && contains s "32-way");
  let series = Figures.figure8_series ~ks:[ 0; 16; 64 ] in
  Alcotest.(check int) "six series" 6 (List.length series);
  (* SP/PL flat at zero; SA reaches high pre-PAS by k=64. *)
  let find name = List.assoc name series in
  List.iter
    (fun (_, p) -> Alcotest.(check (float 0.)) "sp flat" 0. p)
    (find "SP / PL (locked)");
  let sa64 = List.assoc 64 (find "SA/RP/RF 8-way") in
  Alcotest.(check bool) "sa high at 64" true (sa64 > 0.95)

let test_figure9_quick () =
  let s = Figures.figure9 ~scale:Figures.Quick ~seed:3 () in
  Alcotest.(check bool) "both caches shown" true
    (contains s "SA Cache" && contains s "Newcache");
  Alcotest.(check bool) "verdict lines" true (contains s "nibble recovered")

let test_figure10_quick () =
  let s = Figures.figure10 ~scale:Figures.Quick ~seed:3 () in
  Alcotest.(check bool) "six caches" true
    (contains s "SA Cache" && contains s "RP Cache" && contains s "RE Cache")

let test_trials_for () =
  Alcotest.(check int) "full" 4000 (Figures.trials_for Figures.Full 4000);
  Alcotest.(check int) "quick" 400 (Figures.trials_for Figures.Quick 4000);
  Alcotest.(check int) "quick floor" 50 (Figures.trials_for Figures.Quick 100)

(* --- Validation cells --------------------------------------------------------- *)

let test_validation_cells_quick () =
  (* A clearly-leaky and a clearly-protected cell, at reduced scale. *)
  let leak =
    Validation.run_cell ~scale:Figures.Quick Spec.paper_sa
      Attack_type.Flush_and_reload
  in
  Alcotest.(check bool) "sa FR leaks" true leak.Validation.recovered;
  Alcotest.(check bool) "predicted too" true leak.Validation.predicted_leak;
  Alcotest.(check bool) "agrees" true leak.Validation.agrees;
  let safe =
    Validation.run_cell ~scale:Figures.Quick Spec.paper_newcache
      Attack_type.Flush_and_reload
  in
  Alcotest.(check bool) "newcache FR protected" false safe.Validation.recovered;
  Alcotest.(check bool) "agrees" true safe.Validation.agrees

let test_validation_render () =
  let cells =
    [
      Validation.run_cell ~scale:Figures.Quick Spec.paper_sp
        Attack_type.Evict_and_time;
    ]
  in
  let s = Validation.render cells in
  Alcotest.(check bool) "table" true (contains s "SP Cache");
  Alcotest.(check (float 1e-9)) "rate" 1. (Validation.agreement_rate cells)

(* --- Ablations (structure only, quick) ------------------------------------------ *)

let test_ablation_rf_window_analytics () =
  (* The analytic column of the RF sweep must follow 1/(2w+1) without
     running the simulations at full size. *)
  List.iter
    (fun w ->
      let spec =
        Spec.Rf { ways = 8; policy = Policy.Random; back = w; fwd = w }
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "w=%d" w)
        (1. /. float_of_int ((2 * w) + 1))
        (Attack_models.pas Attack_type.Cache_collision spec ()))
    [ 0; 4; 16; 64; 128 ]

(* --- Sweeps ------------------------------------------------------------------------ *)

let test_sweep_associativity () =
  List.iter
    (fun (w, pas, _) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "1/%d" w)
        (1. /. float_of_int w)
        pas)
    (Sweeps.associativity_sweep ~ways:[ 1; 2; 4; 8; 16 ]);
  (* pre-PAS at k = 2w decreases with associativity (Figure 8's lesson). *)
  let ps =
    List.map (fun (_, _, p) -> p) (Sweeps.associativity_sweep ~ways:[ 2; 4; 8; 16 ])
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "prepas decreasing" true (decreasing ps)

let test_sweep_cache_size () =
  List.iter
    (fun (n, pas) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "1/%d" n)
        (1. /. float_of_int n)
        pas)
    (Sweeps.cache_size_sweep ~lines:[ 64; 512; 2048 ])

let test_sweep_rf_window () =
  let w0 = List.hd (Sweeps.rf_window_sweep ~windows:[ 0 ]) in
  (match w0 with
  | _, p3, p2 ->
    Alcotest.(check (float 1e-12)) "window 0 collision" 1.0 p3;
    Alcotest.(check (float 1e-9)) "window 0 type2 like SA" (0.125 *. 0.125) p2);
  let _, p3, _ = List.hd (Sweeps.rf_window_sweep ~windows:[ 64 ]) in
  Alcotest.(check (float 1e-12)) "paper window" (1. /. 129.) p3

let test_sweep_nomo () =
  let r0 = List.hd (Sweeps.nomo_reservation_sweep ~ways:8 ~reserved:[ 0 ]) in
  (match r0 with
  | _, pas, _ -> Alcotest.(check (float 1e-12)) "r=0 degrades to SA" 0.125 pas);
  let _, pas6, _ =
    List.hd (Sweeps.nomo_reservation_sweep ~ways:8 ~reserved:[ 6 ])
  in
  Alcotest.(check (float 1e-12)) "r=6 spill over 2 ways" 0.5 pas6

let test_sweep_csv_shapes () =
  List.iter
    (fun (name, header, rows) ->
      Alcotest.(check bool) (name ^ " non-empty") true (rows <> []);
      List.iter
        (fun row ->
          Alcotest.(check int) (name ^ " width") (List.length header)
            (List.length row))
        rows)
    (Sweeps.csv_rows ())

(* --- Edge measurement ------------------------------------------------------------ *)

let test_edge_sa_eviction () =
  let m = Edge_measure.eviction_stage ~samples:8000 Spec.paper_sa in
  Alcotest.(check (float 0.015)) "sa 1/8" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_partitioned_zero () =
  List.iter
    (fun spec ->
      let m = Edge_measure.eviction_stage ~samples:500 spec in
      Alcotest.(check (float 0.)) (Spec.name spec) 0. m.Edge_measure.measured)
    [ Spec.paper_sp; Spec.paper_pl ]

let test_edge_nomo () =
  let m = Edge_measure.eviction_stage ~samples:8000 Spec.paper_nomo in
  Alcotest.(check (float 0.02)) "nomo 1/6" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_re_reuse () =
  let m = Edge_measure.reuse_stage ~samples:3000 ~gap:100 Spec.paper_re in
  Alcotest.(check (float 0.02)) "re decay" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_rf_reuse () =
  let m = Edge_measure.reuse_stage ~samples:3000 ~gap:10 Spec.paper_rf in
  Alcotest.(check (float 0.01)) "rf p0" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_cross_context () =
  List.iter
    (fun spec ->
      let m = Edge_measure.cross_context_stage ~samples:400 spec in
      Alcotest.(check (float 0.)) (Spec.name spec) 0. m.Edge_measure.measured)
    [ Spec.paper_newcache; Spec.paper_rp ]

(* --- BENCH files: one reader, one gate verdict ------------------------ *)

module Serve_bench = Cachesec_serve.Serve_bench

(* [dune runtest] runs from _build/default/test; [dune exec] from the
   repo root. *)
let bench_file name =
  let dir = if Sys.file_exists "bench" then "bench" else "../bench" in
  Filename.concat dir name
let read_text path = In_channel.with_open_text path In_channel.input_all

let with_temp text f =
  let path = Filename.temp_file "bench" ".json" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let written write =
  let path = Filename.temp_file "bench" ".json" in
  write path;
  let text = read_text path in
  Sys.remove path;
  text

(* The same row with its keys in reverse order. *)
let reversed line =
  match Cachesec_telemetry.Flat_json.parse_row line with
  | Ok r ->
    Cachesec_telemetry.Flat_json.(
      row
        (List.rev_map
           (fun (k, v) -> (k, match v with String s -> str s | Token t -> t))
           r))
  | Error _ -> Alcotest.failf "unparseable row: %s" line

(* Every row kind: the committed rows read back from their own line and
   from the line with reordered keys. *)
let check_rows name to_row of_row entries =
  List.iter
    (fun e ->
      let line = to_row e in
      List.iter
        (fun line ->
          Alcotest.(check bool) (name ^ ": " ^ line) true
            (Result.bind (Cachesec_telemetry.Flat_json.parse_row line) of_row
            = Ok e))
        [ line; reversed line ])
    entries

let test_committed_bench_files () =
  let open Throughput in
  let cache_seed = read ~path:(bench_file "BENCH_cache.seed.json") in
  let cache_base = read ~path:(bench_file "BENCH_cache.baseline.json") in
  let att_seed = Attacks.read ~path:(bench_file "BENCH_attacks.seed.json") in
  let att_base = Attacks.read ~path:(bench_file "BENCH_attacks.baseline.json") in
  let e2e = E2e.read ~path:(bench_file "BENCH_e2e.baseline.json") in
  let adaptive = Adaptive.read ~path:(bench_file "BENCH_e2e.baseline.json") in
  let serve = Serve_bench.read ~path:(bench_file "BENCH_serve.baseline.json") in
  Alcotest.(check (list int)) "row counts" [ 25; 25; 12; 24; 4; 2; 3 ]
    (List.map List.length [ cache_seed; cache_base ]
    @ List.map List.length [ att_seed; att_base ]
    @ [ List.length e2e; List.length adaptive; List.length serve ]);
  Alcotest.(check (list string)) "serve mixes" [ "memo-hit"; "cold"; "sim" ]
    (List.map (fun (e : Serve_bench.entry) -> e.mix) serve);
  (match find cache_seed ~arch:"sa" ~policy:"lru" with
  | Some e ->
    Alcotest.(check (float 0.)) "seed sa/lru per_sec" 4476371.3 e.per_sec;
    Alcotest.(check (list int)) "v1 defaults (warmup, repeats, slab)"
      [ 0; 1; 0 ] [ e.warmup; e.repeats; e.slab_bytes ];
    Alcotest.(check string) "v1 kernel default" "" e.kernel
  | None -> Alcotest.fail "seed sa/lru row missing");
  Alcotest.(check bool) "v1 attack rows are scalar" true
    (List.for_all (fun (e : Attacks.entry) -> e.path = "scalar") att_seed);
  (match Attacks.find att_seed ~attack:"prime-probe" ~arch:"sa" ~path:"scalar" with
  | Some e -> Alcotest.(check (float 0.)) "seed prime-probe/sa" 9003.6 e.per_sec
  | None -> Alcotest.fail "seed prime-probe/sa row missing");
  (* v2 files written back from their parsed rows are byte-identical:
     the reader loses nothing and the writer's format is unchanged. *)
  List.iter
    (fun (file, write) ->
      Alcotest.(check string) file (read_text (bench_file file)) (written write))
    [
      ("BENCH_cache.baseline.json", fun path -> write ~path cache_base);
      ("BENCH_attacks.baseline.json", fun path -> Attacks.write ~path att_base);
      ( "BENCH_e2e.baseline.json",
        fun path -> E2e.write ~adaptive ~path e2e );
      ("BENCH_serve.baseline.json", fun path -> Serve_bench.write ~path serve);
    ];
  check_rows "cache" to_row of_row (cache_seed @ cache_base);
  check_rows "attacks" Attacks.to_row Attacks.of_row (att_seed @ att_base);
  check_rows "e2e" E2e.to_row E2e.of_row e2e;
  check_rows "adaptive" Adaptive.to_row Adaptive.of_row adaptive;
  check_rows "serve" Serve_bench.to_row Serve_bench.of_row serve;
  (* The two row kinds of BENCH_e2e.json do not read as each other. *)
  Alcotest.(check bool) "e2e and adaptive rows stay apart" true
    (List.for_all
       (fun e ->
         Result.is_error
           (Result.bind
              (Cachesec_telemetry.Flat_json.parse_row (Adaptive.to_row e))
              E2e.of_row))
       adaptive)

let test_bench_span_header () =
  let open Throughput in
  let cache = read ~path:(bench_file "BENCH_cache.baseline.json") in
  let text = written (fun path -> write ~span_id:7 ~path cache) in
  with_temp text (fun path ->
      Alcotest.(check bool) "rows survive the header" true (read ~path = cache);
      match Cachesec_telemetry.Flat_json.read ~path with
      | Some { schema; header; _ } ->
        Alcotest.(check (option string)) "schema" (Some "bench_cache/v2") schema;
        Alcotest.(check bool) "telemetry_span" true
          (Cachesec_telemetry.Flat_json.(
             decode (fun h -> get_int h "telemetry_span") header)
          = Ok 7)
      | None -> Alcotest.fail "unreadable")

let ends_with_verdict line =
  let line = String.trim line in
  String.ends_with ~suffix:"PASS" line
  || String.ends_with ~suffix:"FAIL" line
  || (String.ends_with ~suffix:")" line && contains line "(reported")

(* A hard gate whose goalpost is absent, empty or garbled prints FAIL;
   it used to print a line without a verdict and pass CI's FAIL grep. *)
let test_gates_fail_without_goalposts () =
  let open Throughput in
  let cache = read ~path:(bench_file "BENCH_cache.baseline.json") in
  let att = Attacks.read ~path:(bench_file "BENCH_attacks.baseline.json") in
  let adaptive = Adaptive.read ~path:(bench_file "BENCH_e2e.baseline.json") in
  let serve = Serve_bench.read ~path:(bench_file "BENCH_serve.baseline.json") in
  let seed_cache = read_text (bench_file "BENCH_cache.seed.json") in
  let garbled_cache =
    (* the sa/lru row cut mid-key, the rest intact *)
    String.concat "\n"
      (List.map
         (fun l ->
           if contains l "\"policy\": \"lru\"" && contains l "\"arch\": \"sa\""
           then String.sub l 0 30
           else l)
         (String.split_on_char '\n' seed_cache))
  in
  let verdict g = Gate.line g in
  let expect name want g =
    let line = verdict g in
    Alcotest.(check bool) (name ^ ": " ^ line) true
      (contains line want && ends_with_verdict line)
  in
  List.iter
    (fun (name, text) ->
      with_temp text (fun path ->
          expect ("bench_cache vs " ^ name) "FAIL" (gate ~baseline:path cache);
          List.iter
            (fun g ->
              expect ("bench_attacks vs " ^ name)
                (if g.Gate.hard then "FAIL" else "(reported")
                g)
            (Attacks.gate ~baseline:path att)))
    [ ("empty", ""); ("garbage", "{\n  not json\n}\n"); ("garbled sa/lru", garbled_cache) ];
  expect "bench_cache vs absent" "FAIL" (gate ~baseline:"absent.json" cache);
  (* Positive controls: the committed rows against the frozen seeds. *)
  expect "bench_cache vs seed" "PASS"
    (gate ~baseline:(bench_file "BENCH_cache.seed.json") cache);
  List.iter
    (fun g -> expect "bench_attacks vs seed" (if g.Gate.hard then "PASS" else "(reported") g)
    (Attacks.gate ~baseline:(bench_file "BENCH_attacks.seed.json") att);
  expect "adaptive, no arms" "FAIL" (Adaptive.gate []);
  expect "adaptive, one arm" "FAIL" (Adaptive.gate (List.tl adaptive));
  expect "adaptive, committed arms" "PASS" (Adaptive.gate adaptive);
  expect "serve, no mixes" "FAIL" (Serve_bench.gate []);
  expect "serve, no cold mix" "FAIL"
    (Serve_bench.gate (List.filter (fun (e : Serve_bench.entry) -> e.mix <> "cold") serve));
  expect "serve, committed mixes" "PASS" (Serve_bench.gate serve);
  (* e2e stays soft below 4 cores or 4 jobs, value or not; where it is
     hard, a missing arm fails. *)
  let row mode jobs cores =
    { E2e.section = "figures"; mode; jobs; cores; units = 2; seconds = 1. }
  in
  expect "e2e, no rows" "(reported: needs" (E2e.gate []);
  expect "e2e, 2 cores" "(reported: needs"
    (E2e.gate [ row "sequential" 2 2; row "pipelined" 2 2 ]);
  expect "e2e, 4 cores, one arm" "FAIL" (E2e.gate [ row "sequential" 4 4 ]);
  expect "e2e, 4 cores, no gain" "FAIL"
    (E2e.gate [ row "sequential" 4 4; row "pipelined" 4 4 ]);
  (* With a value, each line reads as the hand-written line it replaced. *)
  let with_value x g = Gate.line { g with Gate.value = Some x } in
  List.iter
    (fun (want, got) -> Alcotest.(check string) "gate wording" want got)
    [
      ( "  gate bench_cache  sa/lru speedup  3.00x >= 2.50x PASS\n",
        with_value 3. (gate ~baseline:"absent.json" cache) );
      ( "  gate bench_serve  memo-hit/cold qps ratio   145.3x >= 50.0x PASS\n",
        with_value 145.3 (Serve_bench.gate []) );
      ( "  gate e2e          pipelining speedup  1.10x (reported: needs >= 4 \
         cores and >= 4 jobs for a hard gate)\n",
        with_value 1.1 (E2e.gate []) );
      ( "  gate adaptive     trials saved at matched width  1.50x <  2.00x FAIL\n",
        with_value 1.5 (Adaptive.gate []) );
    ]

let () =
  Alcotest.run "experiments"
    [
      ( "setup",
        [
          Alcotest.test_case "all engines" `Quick test_setup_engines;
          Alcotest.test_case "deterministic" `Quick test_setup_deterministic;
        ] );
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_tables_render;
          Alcotest.test_case "alt geometry" `Quick test_table6_alt_geometry;
          Alcotest.test_case "csv rows" `Quick test_table6_csv_rows;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 4" `Quick test_figure4;
          Alcotest.test_case "figure 8" `Quick test_figure8;
          Alcotest.test_case "figure 9 quick" `Slow test_figure9_quick;
          Alcotest.test_case "figure 10 quick" `Slow test_figure10_quick;
          Alcotest.test_case "trials_for" `Quick test_trials_for;
        ] );
      ( "validation",
        [
          Alcotest.test_case "cells quick" `Slow test_validation_cells_quick;
          Alcotest.test_case "render" `Slow test_validation_render;
        ] );
      ( "bench files",
        [
          Alcotest.test_case "committed goalposts" `Quick
            test_committed_bench_files;
          Alcotest.test_case "telemetry_span header" `Quick
            test_bench_span_header;
          Alcotest.test_case "gates fail without goalposts" `Quick
            test_gates_fail_without_goalposts;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "rf window analytics" `Quick
            test_ablation_rf_window_analytics;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "associativity" `Quick test_sweep_associativity;
          Alcotest.test_case "cache size" `Quick test_sweep_cache_size;
          Alcotest.test_case "rf window" `Quick test_sweep_rf_window;
          Alcotest.test_case "nomo reservation" `Quick test_sweep_nomo;
          Alcotest.test_case "csv shapes" `Quick test_sweep_csv_shapes;
        ] );
      ( "edge measurement",
        [
          Alcotest.test_case "sa eviction stage" `Quick test_edge_sa_eviction;
          Alcotest.test_case "partitioned eviction zero" `Quick
            test_edge_partitioned_zero;
          Alcotest.test_case "nomo eviction" `Slow test_edge_nomo;
          Alcotest.test_case "re reuse decay" `Quick test_edge_re_reuse;
          Alcotest.test_case "rf reuse window" `Quick test_edge_rf_reuse;
          Alcotest.test_case "cross-context pid caches" `Quick
            test_edge_cross_context;
        ] );
    ]
