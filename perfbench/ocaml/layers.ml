(* Per-layer metrics of traced runs, measured from outside: by timing the
   benchmark's own calls into each module's public functions (probes),
   by counts the modules expose (engine counters, telemetry counters,
   Gc.quick_stat, the daemon's stats reply), and by span self times.

   Every traced run reports every name in [names]; a layer that does no
   work in a workload reads 0 there. *)

open Cachesec_cache
open Cachesec_analysis
open Cachesec_attacks
open Cachesec_experiments
module Rng = Cachesec_stats.Rng
module Aes = Cachesec_crypto.Aes

let archs = List.map Spec.name Spec.all_paper

let class_slug = function
  | Attack_type.Evict_and_time -> "evict_time"
  | Attack_type.Prime_and_probe -> "prime_probe"
  | Attack_type.Cache_collision -> "collision"
  | Attack_type.Flush_and_reload -> "flush_reload"

let classes = List.map class_slug Attack_type.all

let self_layers =
  [ "cache"; "crypto"; "attacks"; "runtime"; "experiments"; "analysis"; "serve"; "residual" ]

(* (name, unit, better) for every per-layer metric, in report order. *)
let names =
  List.map (fun a -> ("cache.ns_per_access." ^ a, "ns", "lower")) archs
  @ [
      ("cache.accesses", "count", "lower");
      ("cache.generic_access_share", "share", "lower");
      ("cache.minor_words_per_access", "words", "lower");
      ("cache.build_us", "us", "lower");
      ("crypto.encrypt_traced_ns", "ns", "lower");
    ]
  @ List.concat_map
      (fun c ->
        [
          ("attacks." ^ c ^ ".us_per_trial", "us", "lower");
          ("attacks." ^ c ^ ".accesses_per_trial", "count", "lower");
          ("attacks." ^ c ^ ".self_share", "share", "lower");
        ])
      classes
  @ [
      ("runtime.pool_busy_s", "s", "lower");
      ("runtime.utilization", "share", "higher");
      ("runtime.idle_s", "s", "lower");
      ("runtime.batches", "count", "lower");
      ("experiments.cell_wall_p50_s", "s", "lower");
      ("experiments.cell_wall_max_s", "s", "lower");
      ("analysis.pas_us", "us", "lower");
      ("analysis.prepas_us", "us", "lower");
      ("analysis.resilience_us", "us", "lower");
      ("analysis.table_us", "us", "lower");
      ("serve.route_hit_us", "us", "lower");
      ("serve.route_miss_us", "us", "lower");
      ("serve.transport_us", "us", "lower");
      ("serve.memo_hit_ratio", "share", "higher");
      ("serve.dedup_joins", "count", "higher");
      ("serve.overloaded", "count", "lower");
      ("serve.queue_depth_max", "count", "lower");
      ("serve.sim_wait_ms", "ms", "lower");
      ("gc.minor_words", "words", "lower");
      ("gc.major_collections", "count", "lower");
      ("gc.minor_words_per_trial", "words", "lower");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s", "lower")) self_layers
  @ [ ("trace.overhead_share", "share", "lower") ]

(* Fill a table of measured values, then emit every name in order. *)
type table = (string, float) Hashtbl.t

let table () : table = Hashtbl.create 64
let set (t : table) name v = Hashtbl.replace t name v

let emit (t : table) =
  List.map
    (fun (name, unit_, _) ->
      let v = Option.value (Hashtbl.find_opt t name) ~default:0. in
      Bench.m name (if Float.is_finite v then v else 0.) unit_)
    names

let median_of n f = Util.median (List.init n (fun _ -> f ()))

(* --- probes ------------------------------------------------------------ *)

let lock spec = match spec with Spec.Pl _ -> true | _ -> false

(* Batched replay (the [access_run] path the attacks use) of a skewed
   trace over four times the cache's capacity, mostly hits like an
   attack's table lookups, in ns per access. *)
let access_run_ns spans ~seed spec =
  let s = Setup.make ~seed spec in
  let e = s.Setup.engine in
  let n = 100_000 in
  let trace =
    Workload.generate
      (Workload.Zipf { base = 1 lsl 16; range = 2048; exponent = 1.0 })
      (Rng.create ~seed) ~accesses:n
  in
  e.Engine.access_run ~pid:s.Setup.attacker_pid ~trace ~pos:0 ~len:n Kernel.Fill;
  median_of 3 (fun () ->
      let (), dt =
        Util.time (fun () ->
            Spans.with_span spans ~layer:"cache" ("access_run:" ^ Spec.name spec) (fun _ ->
                e.Engine.access_run ~pid:s.Setup.attacker_pid ~trace ~pos:0 ~len:n Kernel.Fill))
      in
      dt *. 1e9 /. float_of_int n)

let build_us spans ~seed =
  median_of 5 (fun () ->
      let (), dt =
        Util.time (fun () ->
            List.iter
              (fun spec ->
                Spans.with_span spans ~layer:"cache" ("setup_make:" ^ Spec.name spec) (fun _ ->
                    ignore (Setup.make ~seed spec)))
              Spec.all_paper)
      in
      dt *. 1e6 /. float_of_int (List.length Spec.all_paper))

let encrypt_ns spans =
  let key = Aes.key_of_hex Setup.default_key_hex in
  let sc = Aes.create_scratch () in
  let src = Bytes.make 16 'a' and dst = Bytes.create 16 in
  let trace = Array.make Aes.trace_length 0 in
  let n = 20_000 in
  median_of 3 (fun () ->
      let (), dt =
        Util.time (fun () ->
            Spans.with_span spans ~layer:"crypto" "encrypt_traced_into" (fun _ ->
                for i = 0 to n - 1 do
                  Bytes.set_uint8 src 0 (i land 0xff);
                  Aes.encrypt_traced_into sc key ~src ~dst ~trace
                done))
      in
      dt *. 1e9 /. float_of_int n)

type attack_probe = {
  us_per_trial : float;
  accesses_per_trial : float;
  encrypts_per_trial : float;
}

let probe_trials = function
  | Attack_type.Evict_and_time -> 1000
  | Attack_type.Prime_and_probe -> 60
  | Attack_type.Cache_collision -> 2000
  | Attack_type.Flush_and_reload -> 300

(* One [run_span] of the attack on a fresh [Setup.make] world, as a
   campaign batch runs it. *)
let attack_once spans ~seed spec attack =
  let s = Setup.make ~seed spec in
  let e = s.Setup.engine and victim = s.Setup.victim in
  let pid = s.Setup.attacker_pid and rng = s.Setup.rng in
  let count = probe_trials attack in
  e.Engine.reset_counters ();
  let (), dt =
    Util.time (fun () ->
        Spans.with_span spans ~layer:"attacks"
          ("run_span:" ^ Spec.name spec ^ ":" ^ class_slug attack)
          (fun _ ->
            match attack with
            | Attack_type.Evict_and_time ->
              ignore
                (Evict_time.run_span ~victim ~attacker_pid:pid ~rng ~first:0 ~count
                   { Evict_time.default_config with lock_victim_tables = lock spec })
            | Attack_type.Prime_and_probe ->
              ignore
                (Prime_probe.run_span ~victim ~attacker_pid:pid ~rng ~count
                   { Prime_probe.default_config with lock_victim_tables = lock spec })
            | Attack_type.Cache_collision ->
              ignore (Collision.run_span ~victim ~rng ~count Collision.default_config)
            | Attack_type.Flush_and_reload ->
              ignore
                (Flush_reload.run_span ~victim ~attacker_pid:pid ~rng ~count
                   Flush_reload.default_config)))
  in
  let c = e.Engine.counters () and cv = e.Engine.counters_for (Victim.pid victim) in
  let f = float_of_int count in
  {
    us_per_trial = dt *. 1e6 /. f;
    accesses_per_trial = float_of_int c.Counters.accesses /. f;
    encrypts_per_trial = float_of_int cv.Counters.accesses /. float_of_int Aes.trace_length /. f;
  }

let attack_probe spans ~seed spec attack =
  ignore (attack_once (Spans.create ~on:false) ~seed spec attack);
  let runs = List.init 3 (fun _ -> attack_once spans ~seed spec attack) in
  { (List.hd runs) with us_per_trial = Util.median (List.map (fun p -> p.us_per_trial) runs) }

(* Closed forms of lib/analysis, each called directly. *)
let analysis_probes spans t =
  let combos = List.concat_map (fun s -> List.map (fun a -> (s, a)) Attack_type.all) Spec.all_paper in
  let per_call name calls f =
    let n = List.length calls in
    median_of 5 (fun () ->
        let (), dt =
          Util.time (fun () ->
              Spans.with_span spans ~layer:"analysis" name (fun _ -> List.iter f calls))
        in
        dt *. 1e6 /. float_of_int n)
  in
  set t "analysis.pas_us" (per_call "pas" combos (fun (s, a) -> ignore (Attack_models.pas a s ())));
  set t "analysis.prepas_us"
    (per_call "prepas" (List.init 64 (fun k -> (List.nth Spec.all_paper (k mod 9), k + 1)))
       (fun (s, k) -> ignore (Prepas.for_spec s ~k)));
  set t "analysis.resilience_us"
    (per_call "resilience" combos (fun (s, a) -> ignore (Resilience.combined s a)));
  set t "analysis.table_us"
    (per_call "table" Attack_type.all (fun a -> ignore (Pas_tables.rows_for a ())))

(* [Router.route] in process: every line once on a fresh router (the
   miss path), then again (the memo-hit path); median us per line. *)
let route_probe spans ~lines =
  let module Router = Cachesec_serve.Router in
  let n = float_of_int (List.length lines) in
  let pass r name =
    let (), dt =
      Util.time (fun () ->
          Spans.with_span spans ~layer:"serve" name (fun _ ->
              List.iter (fun l -> ignore (Router.route r l)) lines))
    in
    dt *. 1e6 /. n
  in
  let runs =
    List.init 5 (fun _ ->
        let r = Router.create () in
        let miss = pass r "route_miss" in
        (miss, pass r "route_hit"))
  in
  (Util.median (List.map fst runs), Util.median (List.map snd runs))

(* Probes every traced run makes: engine, cipher, closed-form and router
   unit costs. [batched] fills the per-architecture ns/access from the
   [access_run] path; the replay workload fills them from its own
   scalar replay instead. *)
let common spans t ~seed ~batched ~route_lines =
  if batched then
    List.iter
      (fun spec -> set t ("cache.ns_per_access." ^ Spec.name spec) (access_run_ns spans ~seed spec))
      Spec.all_paper;
  set t "cache.build_us" (build_us spans ~seed);
  let enc = encrypt_ns spans in
  set t "crypto.encrypt_traced_ns" enc;
  analysis_probes spans t;
  let miss, hit = route_probe spans ~lines:route_lines in
  set t "serve.route_miss_us" miss;
  set t "serve.route_hit_us" hit;
  enc

(* Attack probes for all 36 cells plus the per-class summary: trials
   are weighted equally across architectures, as in the matrix. *)
let attack_table spans t ~seed ~enc_ns =
  let probes =
    List.concat_map
      (fun spec -> List.map (fun a -> ((spec, a), attack_probe spans ~seed spec a)) Attack_type.all)
      Spec.all_paper
  in
  List.iter
    (fun attack ->
      let ps = List.filter (fun ((_, a), _) -> a = attack) probes in
      let k = float_of_int (List.length ps) in
      let mean f = Util.sum (List.map (fun (_, p) -> f p) ps) /. k in
      let total_us = mean (fun p -> p.us_per_trial) in
      let explained_us =
        Util.sum
          (List.map
             (fun ((spec, _), p) ->
               let ns = Hashtbl.find t ("cache.ns_per_access." ^ Spec.name spec) in
               ((p.accesses_per_trial *. ns) +. (p.encrypts_per_trial *. enc_ns)) /. 1000.)
             ps)
        /. k
      in
      let c = class_slug attack in
      set t ("attacks." ^ c ^ ".us_per_trial") total_us;
      set t ("attacks." ^ c ^ ".accesses_per_trial") (mean (fun p -> p.accesses_per_trial));
      set t ("attacks." ^ c ^ ".self_share") ((total_us -. explained_us) /. total_us))
    Attack_type.all;
  probes
