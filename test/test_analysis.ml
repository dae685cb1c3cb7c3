(* Tests for the analytical layer: the paper's edge probabilities, PAS
   tables, noise curve, pre-PAS closed forms and the resilience
   classification. *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_analysis

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let check_prob = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Attack_type ---------------------------------------------------------- *)

let test_attack_type () =
  Alcotest.(check int) "four types" 4 (List.length Attack_type.all);
  Alcotest.(check (list int)) "numbering" [ 1; 2; 3; 4 ]
    (List.map Attack_type.type_number Attack_type.all);
  List.iter
    (fun a ->
      Alcotest.(check bool) "name roundtrip" true
        (Attack_type.of_name (Attack_type.name a) = Some a))
    Attack_type.all;
  Alcotest.(check bool) "type1 miss+timing" true
    (Attack_type.is_miss_based Attack_type.Evict_and_time
    && Attack_type.is_timing_based Attack_type.Evict_and_time);
  Alcotest.(check bool) "type4 hit+access" true
    ((not (Attack_type.is_miss_based Attack_type.Flush_and_reload))
    && not (Attack_type.is_timing_based Attack_type.Flush_and_reload))

(* --- Noise ------------------------------------------------------------------ *)

let test_noise_p5 () =
  check_prob "sigma 0" 1. (Noise.p5 ~sigma:0.);
  check_close 1e-3 "paper value at sigma 1" 0.691 (Noise.p5 ~sigma:1.);
  check_close 1e-9 "complement" (1. -. Noise.p5 ~sigma:2.)
    (Noise.error_rate ~sigma:2.);
  Alcotest.(check bool) "raises on negative" true
    (try
       ignore (Noise.p5 ~sigma:(-1.));
       false
     with Invalid_argument _ -> true)

let prop_noise_monotone =
  qtest "p5 decreases with sigma"
    QCheck.(pair (float_bound_inclusive 5.) (float_bound_inclusive 5.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Noise.p5 ~sigma:hi <= Noise.p5 ~sigma:lo +. 1e-12)

let prop_sigma_inverse =
  qtest ~count:50 "sigma_for_p5 inverts p5" QCheck.(float_range 0.55 0.99)
    (fun target ->
      let sigma = Noise.sigma_for_p5 ~target in
      Float.abs (Noise.p5 ~sigma -. target) < 1e-6)

let test_trials_to_overcome () =
  Alcotest.(check int) "no noise" 1
    (Noise.trials_to_overcome ~sigma:0. ~confidence:0.99);
  let t1 = Noise.trials_to_overcome ~sigma:1. ~confidence:0.99 in
  let t2 = Noise.trials_to_overcome ~sigma:2. ~confidence:0.99 in
  Alcotest.(check bool) "more noise, more trials" true (t2 > t1);
  (* n = ceil((2 sigma z)^2) with z = Phi^-1(0.99) ~ 2.326: sigma 1 -> 22. *)
  Alcotest.(check int) "known value" 22 t1

(* --- Edge probabilities: the paper's Table 3 --------------------------------- *)

let t3 spec = Edge_probs.evict_and_time spec ()

let test_table3_sa () =
  let e = t3 Spec.paper_sa in
  check_prob "p1" 1. (Edge_probs.find e "p1");
  check_prob "p2" 0.125 (Edge_probs.find e "p2");
  check_prob "p3" 1. (Edge_probs.find e "p3");
  check_prob "p4" 1. (Edge_probs.find e "p4");
  check_prob "p5" 1. (Edge_probs.find e "p5");
  check_prob "PAS" 0.125 (Edge_probs.pas_product e)

let test_table3_rows () =
  let expect =
    [
      (Spec.paper_sp, 0.);
      (Spec.paper_pl, 0.);
      (Spec.paper_nomo, 1. /. 6.);
      (Spec.paper_newcache, 1. /. 512.);
      (Spec.paper_rp, 1. /. 64. /. 8.);
      (Spec.paper_rf, 0.125);
      (Spec.paper_re, 1.0);
    ]
  in
  List.iter
    (fun (spec, pas) ->
      check_close 1e-9 (Spec.name spec) pas (Edge_probs.pas_product (t3 spec)))
    expect;
  check_close 1e-3 "noisy" 0.0864 (Edge_probs.pas_product (t3 Spec.paper_noisy))

let test_table3_sp_detail () =
  (* The paper's SP row: p1 = 0 but p2 stays 1/8. *)
  let e = t3 Spec.paper_sp in
  check_prob "p1 zero" 0. (Edge_probs.find e "p1");
  check_prob "p2 eighth" 0.125 (Edge_probs.find e "p2")

let test_table3_pl_detail () =
  let e = t3 Spec.paper_pl in
  check_prob "p2 eighth" 0.125 (Edge_probs.find e "p2");
  check_prob "p3 zero" 0. (Edge_probs.find e "p3")

(* --- Table 5 (collision) ------------------------------------------------------ *)

let test_table5 () =
  let col spec = Edge_probs.cache_collision spec () in
  check_close 1e-9 "rf p0" (1. /. 129.) (Edge_probs.find (col Spec.paper_rf) "p0");
  check_close 1e-9 "re p4"
    (1. -. (1. /. 5120.))
    (Edge_probs.find (col Spec.paper_re) "p4");
  check_prob "sa pas" 1. (Edge_probs.pas_product (col Spec.paper_sa));
  check_close 1e-9 "rf pas" (1. /. 129.) (Edge_probs.pas_product (col Spec.paper_rf));
  check_close 1e-3 "noisy pas" 0.691 (Edge_probs.pas_product (col Spec.paper_noisy))

(* --- Table 6 (all four types) --------------------------------------------------- *)

let test_table6_matches_paper () =
  (* Every computed PAS within 7% relative (or 1e-6 absolute) of the
     paper's printed value, except the two documented cells. *)
  let skip = [ ("RF Cache", 2); ("Noisy Cache", 2) ] in
  List.iter
    (fun (r : Pas_tables.table6_row) ->
      match List.assoc_opt r.arch6 Pas_tables.paper_table6 with
      | None -> Alcotest.failf "missing paper row %s" r.arch6
      | Some paper ->
        Array.iteri
          (fun i p ->
            if not (List.mem (r.arch6, i + 1) skip) then begin
              let c = r.pas_by_type.(i) in
              let ok =
                Float.abs (c -. p) < 1e-6
                || (p > 0. && Float.abs (c -. p) /. p < 0.07)
              in
              if not ok then
                Alcotest.failf "%s type %d: computed %g vs paper %g" r.arch6
                  (i + 1) c p
            end)
          paper)
    (Pas_tables.table6 ())

let test_table6_documented_deltas () =
  (* The two known deviations stay small and on the safe side. *)
  let rows = Pas_tables.table6 () in
  let find arch =
    List.find (fun (r : Pas_tables.table6_row) -> r.arch6 = arch) rows
  in
  let rf = (find "RF Cache").pas_by_type.(1) in
  Alcotest.(check bool) "rf type2 near paper" true
    (rf > 1.0e-4 && rf < 1.4e-4);
  let noisy = (find "Noisy Cache").pas_by_type.(1) in
  Alcotest.(check bool) "noisy type2 near paper" true
    (noisy > 0.010 && noisy < 0.013)

let test_type4_pid_caches () =
  List.iter
    (fun spec ->
      check_prob
        (Spec.name spec ^ " type4 zero")
        0.
        (Attack_models.pas Attack_type.Flush_and_reload spec ()))
    [ Spec.paper_newcache; Spec.paper_rp ]

let prop_all_edge_probs_valid =
  let pairs =
    List.concat_map
      (fun a -> List.map (fun s -> (a, s)) Spec.all_paper)
      Attack_type.all
  in
  qtest ~count:(List.length pairs) "all 36 edge sets lie in [0,1]"
    QCheck.(int_bound (List.length pairs - 1))
    (fun i ->
      let a, s = List.nth pairs i in
      List.for_all
        (fun (e : Edge_probs.edge) -> e.prob >= 0. && e.prob <= 1.)
        (Edge_probs.for_attack a s ()))

(* --- Attack models (Theorem 1 end-to-end) ---------------------------------------- *)

let test_theorem1_all_36 () =
  List.iter
    (fun attack ->
      List.iter
        (fun spec ->
          let product =
            Edge_probs.pas_product (Edge_probs.for_attack attack spec ())
          in
          let graph_pas = Attack_models.pas attack spec () in
          if Float.abs (product -. graph_pas) > 1e-12 then
            Alcotest.failf "%s/%s: product %g vs graph %g"
              (Attack_type.name attack) (Spec.name spec) product graph_pas)
        Spec.all_paper)
    Attack_type.all

let test_model_shapes () =
  let open Cachesec_core in
  let g1 = Attack_models.evict_and_time Spec.paper_sa () in
  Alcotest.(check int) "type1 nodes" 7 (Graph.node_count g1);
  Alcotest.(check int) "type1 edges" 5 (Graph.edge_count g1);
  let g3 = Attack_models.cache_collision Spec.paper_rf () in
  Alcotest.(check int) "collision has no attacker origin" 0
    (List.length (Graph.attacker_origins g3));
  Alcotest.(check int) "collision victim origins" 2
    (List.length (Graph.victim_origins g3));
  Alcotest.(check int) "collision attacker path empty" 0
    (List.length (Pas.attacker_critical_edges g3));
  let g2 = Attack_models.prime_and_probe Spec.paper_sa () in
  Alcotest.(check int) "type2 edges" 8 (Graph.edge_count g2)

(* --- Pre-PAS ------------------------------------------------------------------------ *)

let test_prepas_lru_step () =
  check_prob "below" 0. (Prepas.sa_lru ~ways:8 ~k:7);
  check_prob "at" 1. (Prepas.sa_lru ~ways:8 ~k:8);
  check_prob "above" 1. (Prepas.sa_lru ~ways:8 ~k:100)

let test_prepas_random_coupon () =
  check_close 1e-12 "matches coupon"
    (Coupon.prob_all_covered ~bins:8 ~trials:20)
    (Prepas.sa_random ~ways:8 ~k:20)

let test_prepas_newcache () =
  check_close 1e-12 "formula"
    (1. -. ((511. /. 512.) ** 30.))
    (Prepas.newcache ~logical_lines:512 ~k:30)

let test_prepas_re_free_lunch () =
  (* RE at interval 10 equals SA with k + k/10 accesses. *)
  check_close 1e-12 "free lunches"
    (Prepas.sa_random ~ways:8 ~k:33)
    (Prepas.re ~ways:8 ~interval:10 ~k:30 ~policy:Policy.Random);
  (* LRU: 8-way cleaned at k=8 normally, k=7 with a free lunch at T=7. *)
  check_prob "lru boundary" 1.
    (Prepas.re ~ways:8 ~interval:7 ~k:7 ~policy:Policy.Lru)

let prop_re_dominates_sa =
  qtest "RE cleaning never harder than SA" QCheck.(int_range 0 120) (fun k ->
      Prepas.re ~ways:8 ~interval:10 ~k ~policy:Policy.Random
      >= Prepas.sa_random ~ways:8 ~k -. 1e-12)

let test_prepas_nomo () =
  check_prob "fits reservation" 0.
    (Prepas.nomo ~ways:8 ~reserved:2 ~victim_lines_in_set:2 ~k:100
       ~policy:Policy.Random);
  check_close 1e-12 "exceeds: shared-way game"
    (Prepas.sa_random ~ways:6 ~k:20)
    (Prepas.nomo ~ways:8 ~reserved:2 ~victim_lines_in_set:3 ~k:20
       ~policy:Policy.Random);
  check_prob "alpha 0 degrades to SA"
    (Prepas.sa_random ~ways:8 ~k:20)
    (Prepas.nomo ~ways:8 ~reserved:0 ~victim_lines_in_set:1 ~k:20
       ~policy:Policy.Random)

let test_prepas_for_spec () =
  check_prob "sp" 0. (Prepas.for_spec Spec.paper_sp ~k:1000);
  check_prob "pl locked" 0. (Prepas.for_spec Spec.paper_pl ~k:1000);
  check_close 1e-12 "pl unlocked = sa"
    (Prepas.sa_random ~ways:8 ~k:20)
    (Prepas.for_spec ~prefetched:false Spec.paper_pl ~k:20);
  check_close 1e-12 "rp = sa"
    (Prepas.sa_random ~ways:8 ~k:20)
    (Prepas.for_spec Spec.paper_rp ~k:20);
  check_close 1e-12 "rf = sa"
    (Prepas.sa_random ~ways:8 ~k:20)
    (Prepas.for_spec Spec.paper_rf ~k:20)

let test_prepas_policy_arms () =
  (* FIFO owns its arm but coincides with the LRU step. *)
  check_prob "fifo below" 0. (Prepas.sa_fifo ~ways:8 ~k:7);
  check_prob "fifo at" 1. (Prepas.sa_fifo ~ways:8 ~k:8);
  (* MRU/LFU/MFU self-thrash: cleaning succeeds only in a 1-way set. *)
  List.iter
    (fun (name, f) ->
      check_prob (name ^ " multi-way never cleans") 0. (f ~ways:8 ~k:10_000);
      check_prob (name ^ " single-way k=0") 0. (f ~ways:1 ~k:0);
      check_prob (name ^ " single-way k=1") 1. (f ~ways:1 ~k:1))
    [ ("mru", Prepas.sa_mru); ("lfu", Prepas.sa_lfu); ("mfu", Prepas.sa_mfu) ];
  (* Tree-PLRU cleans on the same step as true LRU. *)
  check_prob "plru below" 0. (Prepas.sa_plru ~ways:8 ~k:7);
  check_prob "plru at" 1. (Prepas.sa_plru ~ways:8 ~k:8);
  (* The exhaustive dispatch routes each policy to its own arm. *)
  List.iter
    (fun (policy, expect) ->
      check_prob ("dispatch " ^ Policy.to_string policy) expect
        (Prepas.sa ~ways:8 ~k:8 ~policy))
    [
      (Policy.Lru, 1.);
      (Policy.Fifo, 1.);
      (Policy.Random, Coupon.prob_all_covered ~bins:8 ~trials:8);
      (Policy.Mru, 0.);
      (Policy.Lfu, 0.);
      (Policy.Mfu, 0.);
      (Policy.Plru, 1.);
    ]

(* The closed forms are derivations, not fits — check every policy's
   arm against the Monte-Carlo cleaning game played on the real SA
   engine (which exercises the monomorphized kernels and policy hooks). *)
let test_prepas_policy_monte_carlo () =
  List.iter
    (fun policy ->
      let spec = Spec.with_policy Spec.paper_sa policy in
      List.iter
        (fun k ->
          let closed = Prepas.for_spec spec ~k in
          let mc =
            Cachesec_experiments.Driver.(
              await
                (submit
                   (Cachesec_runtime.Run.make ~seed:0xC1EA0 ())
                   (cleaning_game spec ~accesses:k ~samples:400)))
          in
          if Float.abs (closed -. mc) > 0.07 then
            Alcotest.failf "%s k=%d: closed form %.4f vs Monte-Carlo %.4f"
              (Policy.to_string policy)
              k closed mc)
        [ 7; 8; 32 ])
    Policy.all

let test_cleaning_limit () =
  check_prob "sa random" 1. (Prepas.cleaning_limit Spec.paper_sa);
  check_prob "sa lru" 1.
    (Prepas.cleaning_limit (Spec.with_policy Spec.paper_sa Policy.Lru));
  check_prob "sa mru" 0.
    (Prepas.cleaning_limit (Spec.with_policy Spec.paper_sa Policy.Mru));
  check_prob "sa lfu" 0.
    (Prepas.cleaning_limit (Spec.with_policy Spec.paper_sa Policy.Lfu));
  check_prob "sp" 0. (Prepas.cleaning_limit Spec.paper_sp);
  check_prob "pl locked" 0. (Prepas.cleaning_limit Spec.paper_pl);
  check_prob "pl unlocked" 1.
    (Prepas.cleaning_limit ~prefetched:false Spec.paper_pl);
  (* The paper's RE cache is direct-mapped, so even MRU cleans it. *)
  check_prob "re mru (1-way)" 1.
    (Prepas.cleaning_limit (Spec.with_policy Spec.paper_re Policy.Mru))

let prop_prepas_monotone_in_k =
  qtest "pre-PAS non-decreasing in k"
    QCheck.(pair (int_bound 8) (int_range 0 100))
    (fun (which, k) ->
      let spec = List.nth Spec.all_paper which in
      Prepas.for_spec spec ~k <= Prepas.for_spec spec ~k:(k + 1) +. 1e-12)

let prop_prepas_in_unit =
  qtest "pre-PAS in [0,1]"
    QCheck.(pair (int_bound 8) (int_range 0 300))
    (fun (which, k) ->
      let spec = List.nth Spec.all_paper which in
      let p = Prepas.for_spec spec ~k in
      p >= 0. && p <= 1.)

(* --- Resilience (Table 7) ------------------------------------------------------------ *)

let test_table7_matches_paper () =
  List.iter2
    (fun (arch_c, computed) (arch_p, paper) ->
      Alcotest.(check string) "row order" arch_p arch_c;
      Array.iteri
        (fun i v ->
          if v <> paper.(i) then
            Alcotest.failf "%s type %d: computed %s vs paper %s" arch_c (i + 1)
              (Resilience.verdict_to_string v)
              (Resilience.verdict_to_string paper.(i)))
        computed)
    (Resilience.table7 ()) Resilience.paper_table7

let test_resilience_misc () =
  Alcotest.(check string) "marks" "Y" (Resilience.verdict_mark Resilience.High);
  let c = Resilience.combined Spec.paper_newcache Attack_type.Evict_and_time in
  Alcotest.(check bool) "combined pas small" true (c.Resilience.pas < 0.01);
  Alcotest.(check bool) "combined prepas callable" true
    (c.Resilience.prepas_at 64 < 0.2);
  Alcotest.(check bool) "verdict high" true (c.Resilience.verdict = Resilience.High)

let test_policy_matrix () =
  let m = Resilience.policy_matrix () in
  Alcotest.(check int) "8 policied archs" 8 (List.length m);
  List.iter
    (fun (_, by_policy) ->
      Alcotest.(check int) "7 policies" 7 (List.length by_policy);
      List.iter
        (fun (_, cells) ->
          Alcotest.(check int) "4 attacks" 4 (List.length cells);
          List.iter
            (fun (c : Resilience.policy_cell) ->
              Alcotest.(check bool) "effective <= pas" true
                (c.effective <= c.pas +. 1e-12);
              Alcotest.(check bool) "limit is a 0/1 bit" true
                (c.limit = 0. || c.limit = 1.);
              Alcotest.(check bool) "bits non-negative" true (c.bits >= 0.))
            cells)
        by_policy)
    m;
  (* MRU zeroes the SA cache's miss-based columns: the self-thrashing
     attacker can never clean the victim's set. *)
  let sa_mru =
    let _, by_policy =
      List.find (fun (s, _) -> Spec.name s = "sa") m
    in
    List.assoc Policy.Mru by_policy
  in
  List.iter
    (fun (c : Resilience.policy_cell) ->
      if Attack_type.is_miss_based c.attack then begin
        check_prob "sa/mru miss-based effective PAS" 0. c.effective;
        Alcotest.(check bool) "sa/mru miss-based verdict" true
          (c.verdict = Resilience.High)
      end
      else
        Alcotest.(check bool) "sa/mru reuse-based unaffected" true
          (c.effective = c.pas))
    sa_mru;
  (* Under LRU/random/fifo/plru the SA cache keeps its Table 7 row. *)
  let sa_lru =
    let _, by_policy = List.find (fun (s, _) -> Spec.name s = "sa") m in
    List.assoc Policy.Lru by_policy
  in
  List.iter
    (fun (c : Resilience.policy_cell) ->
      Alcotest.(check bool) "sa/lru stays low-resilience" true
        (c.verdict = Resilience.Low))
    sa_lru

let test_resilience_threshold_sensitivity () =
  (* With a huge threshold everything is resilient except pure-noise
     designs. *)
  Alcotest.(check bool) "sa resilient at threshold 2" true
    (Resilience.classify ~threshold:2. Spec.paper_sa Attack_type.Evict_and_time
     = Resilience.High);
  Alcotest.(check bool) "noisy never resilient" true
    (Resilience.classify ~threshold:2. Spec.paper_noisy Attack_type.Evict_and_time
     = Resilience.Low)

(* --- Perf model -------------------------------------------------------------------- *)

let test_perf_model_popularity () =
  let z = Perf_model.zipf_popularity ~n:100 ~exponent:1.0 in
  check_close 1e-9 "normalised" 1. (Array.fold_left ( +. ) 0. z);
  Alcotest.(check bool) "rank 1 twice rank 2" true
    (Float.abs ((z.(0) /. z.(1)) -. 2.) < 1e-9);
  let u = Perf_model.uniform_popularity ~n:50 in
  check_close 1e-9 "uniform cell" 0.02 u.(0)

let test_perf_model_sane () =
  let pop = Perf_model.zipf_popularity ~n:1000 ~exponent:1.0 in
  let h256 = Perf_model.lru_hit_rate ~popularity:pop ~cache_lines:256 in
  let h512 = Perf_model.lru_hit_rate ~popularity:pop ~cache_lines:512 in
  Alcotest.(check bool) "in unit interval" true (h256 > 0. && h256 < 1.);
  Alcotest.(check bool) "monotone in capacity" true (h512 > h256);
  check_close 1e-9 "everything fits" 1.
    (Perf_model.lru_hit_rate ~popularity:pop ~cache_lines:1000)

let test_perf_model_lru_vs_random () =
  let pop = Perf_model.zipf_popularity ~n:2048 ~exponent:1.0 in
  let lru = Perf_model.lru_hit_rate ~popularity:pop ~cache_lines:512 in
  let rnd = Perf_model.random_hit_rate ~popularity:pop ~cache_lines:512 in
  Alcotest.(check bool) "lru exploits skew better" true (lru > rnd)

let test_perf_model_vs_sim () =
  let open Cachesec_stats in
  let open Cachesec_cache in
  let n = 1024 and exponent = 1.0 in
  let pop = Perf_model.zipf_popularity ~n ~exponent in
  let model = Perf_model.random_hit_rate ~popularity:pop ~cache_lines:512 in
  let rng = Rng.create ~seed:99 in
  let sa =
    Sa.create ~config:Config.fully_associative ~policy:Policy.Random
      ~rng:(Rng.split rng) ()
  in
  let sim =
    Workload.hit_rate (Sa.engine sa) ~pid:0
      (Workload.Zipf { base = 0; range = n; exponent })
      ~rng:(Rng.split rng) ~accesses:80000
  in
  check_close 0.015 "fagin-king matches simulator" model sim

let () =
  Alcotest.run "analysis"
    [
      ("attack types", [ Alcotest.test_case "classification" `Quick test_attack_type ]);
      ( "noise",
        [
          Alcotest.test_case "p5" `Quick test_noise_p5;
          prop_noise_monotone;
          prop_sigma_inverse;
          Alcotest.test_case "trials to overcome" `Quick test_trials_to_overcome;
        ] );
      ( "table 3",
        [
          Alcotest.test_case "sa row" `Quick test_table3_sa;
          Alcotest.test_case "all rows" `Quick test_table3_rows;
          Alcotest.test_case "sp detail" `Quick test_table3_sp_detail;
          Alcotest.test_case "pl detail" `Quick test_table3_pl_detail;
        ] );
      ("table 5", [ Alcotest.test_case "collision rows" `Quick test_table5 ]);
      ( "table 6",
        [
          Alcotest.test_case "matches paper" `Quick test_table6_matches_paper;
          Alcotest.test_case "documented deltas" `Quick test_table6_documented_deltas;
          Alcotest.test_case "pid caches type4" `Quick test_type4_pid_caches;
          prop_all_edge_probs_valid;
        ] );
      ( "attack models",
        [
          Alcotest.test_case "theorem 1 on all 36" `Quick test_theorem1_all_36;
          Alcotest.test_case "graph shapes" `Quick test_model_shapes;
        ] );
      ( "pre-pas",
        [
          Alcotest.test_case "lru step" `Quick test_prepas_lru_step;
          Alcotest.test_case "random coupon" `Quick test_prepas_random_coupon;
          Alcotest.test_case "newcache" `Quick test_prepas_newcache;
          Alcotest.test_case "re free lunch" `Quick test_prepas_re_free_lunch;
          prop_re_dominates_sa;
          Alcotest.test_case "nomo" `Quick test_prepas_nomo;
          Alcotest.test_case "for_spec" `Quick test_prepas_for_spec;
          Alcotest.test_case "per-policy arms" `Quick test_prepas_policy_arms;
          Alcotest.test_case "policy closed forms vs monte-carlo" `Quick
            test_prepas_policy_monte_carlo;
          Alcotest.test_case "cleaning limit" `Quick test_cleaning_limit;
          prop_prepas_monotone_in_k;
          prop_prepas_in_unit;
        ] );
      ( "perf model",
        [
          Alcotest.test_case "popularity vectors" `Quick test_perf_model_popularity;
          Alcotest.test_case "hit rates sane" `Quick test_perf_model_sane;
          Alcotest.test_case "lru beats random under skew" `Quick
            test_perf_model_lru_vs_random;
          Alcotest.test_case "matches simulator" `Slow test_perf_model_vs_sim;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "table 7 matches paper" `Quick test_table7_matches_paper;
          Alcotest.test_case "misc" `Quick test_resilience_misc;
          Alcotest.test_case "threshold sensitivity" `Quick
            test_resilience_threshold_sensitivity;
          Alcotest.test_case "policy matrix" `Quick test_policy_matrix;
        ] );
    ]
