(* Seeded input generation. Every input a workload feeds the system is a
   pure function of the run seed (and of a pass index), so a seed names
   one exact set of inputs. *)

open Cachesec_cache
open Cachesec_analysis
module Rng = Cachesec_stats.Rng

let rng seed salt = Rng.create ~seed:(Rng.derive_seed seed salt)

(* --- replay ------------------------------------------------------------ *)

(* Every (architecture, policy) engine: the nine paper specs under each
   of the seven policies, Newcache once (its SecRAND replacement is not a
   policy choice). *)
let replay_specs =
  List.concat_map
    (fun spec ->
      match spec with
      | Spec.Newcache _ -> [ spec ]
      | _ -> List.map (Spec.with_policy spec) Policy.all)
    Spec.all_paper

let replay_accesses = 50_000

(* Working sets below (384 lines) and above (768) the 512-line capacity,
   a conflict-heavy stride over one set's worth of lines, and two random
   popularity models. Only the base addresses depend on the seed. *)
let replay_patterns seed =
  let r = rng seed 1 in
  let base () = Rng.int r (1 lsl 20) in
  let loop_under = Workload.Loop { start = base (); length = 384 } in
  let loop_over = Workload.Loop { start = base (); length = 768 } in
  let strided = Workload.Strided { start = base (); stride = 64; count = 16 } in
  let zipf = Workload.Zipf { base = base (); range = 2048; exponent = 1.0 } in
  let uniform = Workload.Uniform { base = base (); range = 1024 } in
  [
    ("loop_under", loop_under);
    ("loop_over", loop_over);
    ("strided", strided);
    ("zipf", zipf);
    ("uniform", uniform);
  ]

(* One trace per pattern, shared by every engine. *)
let replay_traces ?(accesses = replay_accesses) seed =
  List.mapi
    (fun i (name, p) -> (name, Workload.generate p (rng seed (100 + i)) ~accesses))
    (replay_patterns seed)

(* --- serve --------------------------------------------------------------- *)

type kind =
  | Hot  (** closed form asked again and again: memo hits *)
  | Novel  (** closed form asked once: memo misses *)
  | Sim  (** a validate cell asked for the first time *)
  | Sim_again  (** the same validate line again: dedup join or memo hit *)
  | Stats  (** a [stats] poll (traced runs only; its reply is not checked) *)

let kind_name = function
  | Hot -> "hot"
  | Novel -> "novel"
  | Sim -> "sim"
  | Sim_again -> "sim_again"
  | Stats -> "stats"

type query = { line : string; kind : kind }

let attacks = Array.of_list Attack_type.all
let arch_names = Array.of_list (List.map Spec.name Spec.all_paper)
let policies = Array.of_list (List.map Policy.to_string Policy.all)

let cache_args r =
  let arch = Rng.pick r arch_names in
  if arch = "newcache" then "cache=newcache"
  else
    Printf.sprintf "cache=%s policy=%s ways=%d" arch (Rng.pick r policies)
      (Rng.pick r [| 4; 8; 16 |])

let attack_arg r = "attack=" ^ Attack_type.name (Rng.pick r attacks)

let hot_set seed =
  let r = rng seed 2 in
  List.init 24 (fun i ->
      match i mod 4 with
      | 0 -> Printf.sprintf "pas %s %s" (cache_args r) (attack_arg r)
      | 1 -> Printf.sprintf "resilience %s %s" (cache_args r) (attack_arg r)
      | 2 -> Printf.sprintf "table %s" (attack_arg r)
      | _ -> Printf.sprintf "prepas %s k=%d" (cache_args r) (1 + Rng.int r 256))

(* Closed-form questions never asked before in this run. Uniqueness is
   tracked on the exact line; every line is also a distinct question, so
   each one misses the memo. [seen] carries across passes. *)
let novel_closed r ~seen ~hot n =
  let out = ref [] and k = ref 0 in
  while !k < n do
    let line =
      match Rng.int r 20 with
      | 0 -> Printf.sprintf "resilience %s %s" (cache_args r) (attack_arg r)
      | 1 ->
        Printf.sprintf "table %s ways=%d lines=%d lb=%d" (attack_arg r)
          (Rng.pick r [| 2; 4; 8; 16 |])
          (Rng.pick r [| 256; 512; 1024; 2048; 4096 |])
          (Rng.pick r [| 32; 64; 128 |])
      | 2 | 3 | 4 | 5 | 6 ->
        Printf.sprintf "pas %s %s lines=%d lb=%d" (cache_args r) (attack_arg r)
          (Rng.pick r [| 256; 512; 1024; 2048; 4096 |])
          (Rng.pick r [| 32; 64; 128 |])
      | _ -> Printf.sprintf "prepas %s k=%d" (cache_args r) (1 + Rng.int r 1_000_000)
    in
    if not (Hashtbl.mem seen line || List.mem line hot) then begin
      Hashtbl.add seen line ();
      out := line :: !out;
      incr k
    end
  done;
  List.rev !out

(* The validate cells of every pass: cheap and dear cells across all nine
   architectures (quick-scale serial cost 2 ms to 250 ms on the reference
   host), fixed so that each pass costs about the same. *)
let sim_cells =
  [
    ("sa", Attack_type.Evict_and_time);
    ("sp", Attack_type.Prime_and_probe);
    ("pl", Attack_type.Flush_and_reload);
    ("nomo", Attack_type.Evict_and_time);
    ("newcache", Attack_type.Prime_and_probe);
    ("rp", Attack_type.Flush_and_reload);
    ("rf", Attack_type.Evict_and_time);
    ("re", Attack_type.Prime_and_probe);
    ("noisy", Attack_type.Flush_and_reload);
    ("sa", Attack_type.Cache_collision);
    ("rp", Attack_type.Prime_and_probe);
    ("nomo", Attack_type.Flush_and_reload);
  ]

let validate_line (arch, attack) ~seed =
  Printf.sprintf "validate cache=%s attack=%s seed=%d quick=1" arch
    (Attack_type.name attack) seed

type serve_plan = { hot : string list; passes : query list array }

let hot_per_pass = 600
let novel_per_pass = 120

(* One pass: [hot_per_pass] hot and [novel_per_pass] novel closed-form
   queries in seeded order, with the pass's validate cells spread evenly
   through them. Each validate line is asked twice: the even-numbered
   ones immediately again (a concurrent asker — dedup), the odd-numbered
   ones at the end of the pass (after completion — memo hit). *)
let serve_pass r ~seen ~hot ~seed ~pass =
  let hot_a = Array.of_list hot in
  let closed =
    Array.of_list
      (List.init hot_per_pass (fun _ -> { line = Rng.pick r hot_a; kind = Hot })
      @ List.map (fun line -> { line; kind = Novel }) (novel_closed r ~seen ~hot novel_per_pass))
  in
  Rng.shuffle_in_place r closed;
  let sims =
    List.mapi
      (fun i cell ->
        validate_line cell ~seed:(Rng.derive_seed seed ((pass * 1000) + i)))
      sim_cells
  in
  let nsims = List.length sims in
  let gap = Array.length closed / nsims in
  let out = ref [] and later = ref [] in
  Array.iteri
    (fun i q ->
      if i mod gap = 0 && i / gap < nsims then begin
        let k = i / gap in
        let line = List.nth sims k in
        out := { line; kind = Sim } :: !out;
        if k mod 2 = 0 then out := { line; kind = Sim_again } :: !out
        else later := { line; kind = Sim_again } :: !later
      end;
      out := q :: !out)
    closed;
  List.rev_append !out (List.rev !later)

let serve_plan seed ~passes =
  let r = rng seed 3 in
  let hot = hot_set seed in
  let seen = Hashtbl.create 4096 in
  { hot; passes = Array.init passes (fun pass -> serve_pass r ~seen ~hot ~seed ~pass) }

let digest_lines lines = Util.hex_digest (String.concat "\n" lines)
