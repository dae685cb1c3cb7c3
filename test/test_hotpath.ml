(* Golden-trace equivalence + allocation guard for the zero-allocation
   hot path.

   The digests in test/golden/hotpath.golden were recorded from the
   pre-optimization (seed) engines. Every optimized engine must replay
   the frozen 20k-op workload bit-identically: same per-op outcomes
   (including eviction payloads), same counters, same final line dump.
   Any divergence means the "performance" change altered simulated
   behaviour and must be rejected.

   The allocation guard additionally pins hit paths to (essentially)
   zero minor-heap words per access and miss paths to a small bounded
   amount, on the generic path and on the scalar and batched kernels
   of SA, PL and RP cells, and on the generic-only SP and Nomo
   engines. *)

open Cachesec_stats
open Cachesec_cache
open Hotpath_workload

(* Under [dune runtest] the cwd is the test directory (the golden file
   is declared as a dep); under a bare [dune exec] from the repo root it
   lives one level down. *)
let golden_path =
  if Sys.file_exists "golden/hotpath.golden" then "golden/hotpath.golden"
  else "test/golden/hotpath.golden"

let test_golden_traces () =
  let golden = Workload.read_golden ~path:golden_path in
  Alcotest.(check bool)
    "golden file present and non-empty" true
    (List.length golden > 0);
  let current = Workload.all_digests () in
  (* Same case set, same order. *)
  Alcotest.(check (list string))
    "case names" (List.map fst golden) (List.map fst current);
  List.iter2
    (fun (name, want) (_, got) ->
      Alcotest.(check string) (Printf.sprintf "digest %s" name) want got)
    golden current

(* --- allocation guard ------------------------------------------------- *)

(* The paths of one (arch, policy) cell, sharing one state: the generic
   policy-dispatching [access], then the [Auto] engine — its scalar
   kernel (SP and Nomo: the generic access again) and its batched
   [access_run] in [Fill] mode, driven one access per run. *)
let paths arch policy ~seed : (pid:int -> int -> Outcome.t) list =
  let rng = Rng.create ~seed in
  let config = Config.standard in
  let generic, engine =
    match arch with
    | `Sa ->
      let c = Sa.create ~config ~policy ~rng () in
      (Sa.access c, Sa.engine c)
    | `Pl ->
      let c = Pl.create ~config ~policy ~rng () in
      (Pl.access c, Pl.engine c)
    | `Rp ->
      let c = Rp.create ~config ~policy ~rng () in
      (Rp.access c, Rp.engine c)
    | `Sp ->
      (* pid 0's lines all live in its own partition, so they can hit. *)
      let c =
        Sp.create_two_domain ~config ~policy ~victim_pid:0
          ~victim_lines:[ (0, max_int) ] ~rng ()
      in
      (Sp.access c, Sp.engine c)
    | `Nomo ->
      let c = Nomo.create ~config ~policy ~protected_pids:[ 0 ] ~rng () in
      (Nomo.access c, Nomo.engine c)
  in
  let trace = [| 0 |] in
  [
    generic;
    engine.Engine.access;
    (fun ~pid addr ->
      trace.(0) <- addr;
      engine.Engine.access_run ~pid ~trace ~pos:0 ~len:1 Kernel.Fill;
      Outcome.hit);
  ]

(* A warm cache hammered with hits must return the preallocated
   [Outcome.hit] and allocate nothing on the minor heap. *)
let hit_path_allocation_free name arch policy ~seed () =
  let sets = Config.sets Config.standard in
  List.iter
    (fun access ->
      (* Warm: make lines 0 .. sets-1 resident (one per set). *)
      for addr = 0 to sets - 1 do
        ignore (access ~pid:0 addr)
      done;
      let iters = 100_000 in
      let before = Gc.minor_words () in
      for i = 0 to iters - 1 do
        ignore (access ~pid:0 (i mod sets))
      done;
      let after = Gc.minor_words () in
      (* Each [Gc.minor_words] call itself boxes a float (2-3 words);
         allow a small constant slack but nothing proportional to
         [iters]. *)
      let delta = after -. before in
      if delta > 64. then
        Alcotest.failf "%s hit path allocated %.0f minor words over %d hits"
          name delta iters)
    (paths arch policy ~seed)

(* Misses allocate the outcome record and its [Some] payloads - a small
   bounded amount, not O(ways) scan lists. Budget: well under 20 words
   per access. Distinct tags per set so every access misses and evicts
   (random, mru, mfu: scans over [last_use]/[freq] or one RNG draw). *)
let miss_path_allocation_lean name arch policy ~seed () =
  List.iter
    (fun access ->
      let iters = 50_000 in
      let before = Gc.minor_words () in
      for i = 0 to iters - 1 do
        ignore (access ~pid:0 i)
      done;
      let after = Gc.minor_words () in
      let per_access = (after -. before) /. float_of_int iters in
      if per_access > 20. then
        Alcotest.failf "%s miss path allocates %.1f minor words/access" name
          per_access)
    (paths arch policy ~seed)

let () =
  let hit name arch policy ~seed =
    Alcotest.test_case (name ^ " hit path zero-alloc") `Quick
      (hit_path_allocation_free name arch policy ~seed)
  and miss name arch policy ~seed =
    Alcotest.test_case (name ^ " miss path lean") `Quick
      (miss_path_allocation_lean name arch policy ~seed)
  in
  Alcotest.run "hotpath"
    [
      ( "golden-trace",
        [ Alcotest.test_case "all engines bit-identical" `Quick test_golden_traces ] );
      ( "allocation",
        [
          hit "sa/lru" `Sa Policy.Lru ~seed:42;
          miss "sa/random" `Sa Policy.Random ~seed:43;
          hit "sa/plru" `Sa Policy.Plru ~seed:44;
          miss "sa/lfu" `Sa Policy.Lfu ~seed:45;
          miss "sa/mru" `Sa Policy.Mru ~seed:46;
          hit "pl/plru" `Pl Policy.Plru ~seed:47;
          hit "rp/lfu" `Rp Policy.Lfu ~seed:48;
          miss "pl/mfu" `Pl Policy.Mfu ~seed:49;
          hit "sp/random" `Sp Policy.Random ~seed:50;
          miss "sp/random" `Sp Policy.Random ~seed:51;
          miss "nomo/random" `Nomo Policy.Random ~seed:52;
        ] );
    ]
