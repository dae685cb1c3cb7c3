open Cachesec_stats
open Cachesec_cache
open Cachesec_analysis
open Cachesec_report
open Cachesec_runtime

type measurement = {
  label : string;
  arch : string;
  closed_form : float;
  measured : float;
  samples : int;
}

let victim_pid = 0
let attacker_pid = 1

let scenario =
  { Factory.victim_pid; victim_lines = [ (0, Cachesec_attacks.Attacker.default_base - 1) ] }

(* One eviction-stage sample: whether the designated victim line was
   displaced by a single fresh attacker access. *)
let eviction_sample spec rng =
  let engine = Factory.build spec scenario ~rng in
  (* The seeding phase must place deterministic victim lines even under
     RF (see Cleaner for the same convention). *)
  engine.Engine.set_window ~pid:victim_pid ~back:0 ~fwd:0;
  let cfg = engine.Engine.config in
  let sets = Config.sets cfg and ways = cfg.Config.ways in
  let target_set = 0 in
  let seeded =
    match spec with
    | Spec.Newcache _ -> [ 0 ]
    | _ -> List.init ways (fun k -> target_set + (k * sets))
  in
  List.iter (fun l -> ignore (engine.Engine.access ~pid:victim_pid l)) seeded;
  (match spec with
  | Spec.Pl _ ->
    List.iter (fun l -> ignore (engine.Engine.lock_line ~pid:victim_pid l)) seeded
  | _ -> ());
  (* Designated line: a victim line in an attacker-evictable slot. The
     paper's Nomo row scores evicting an unreserved (shared-way) victim
     line: every miss fills the first invalid way of its slice, so the
     victim's first [reserved] lines take the reserved ways and the
     next one lands in shared way [reserved] (reserved < ways). *)
  let target =
    match spec with
    | Spec.Newcache _ -> 0
    | Spec.Nomo { reserved; _ } -> target_set + (reserved * sets)
    | _ -> target_set
  in
  ignore
    (engine.Engine.access ~pid:attacker_pid
       (Cachesec_attacks.Attacker.nth_conflict_line cfg ~set:target_set 0));
  not (engine.Engine.peek ~pid:victim_pid target)

let eviction_closed_form spec =
  let e = Edge_probs.evict_and_time spec () in
  Edge_probs.find e "p1" *. Edge_probs.find e "p2" *. Edge_probs.find e "p3"

(* A stage is a Bernoulli campaign over its sampler, reported next to
   its closed form. *)
let stage ctx ~name ~label ~closed_form ~samples spec sample =
  Driver.map_pending
    (fun measured ->
      { label; arch = Spec.display_name spec; closed_form; measured; samples })
    (Driver.submit ctx
       (Driver.bernoulli ~name:(name ^ ":" ^ Spec.name spec) ~samples
          (sample spec)))

let eviction_stage ctx ~samples spec =
  stage ctx ~name:"edge-eviction" ~label:"eviction p1*p2*p3"
    ~closed_form:(eviction_closed_form spec) ~samples spec eviction_sample

(* Reuse stage: victim touches line v, makes [gap] unrelated accesses,
   touches v again; count the second touch's hit. v sits far from 0 (an
   RF window clamped at line 0 would shrink) and the filler lines sit
   far from v (so no RF window covers it and no set conflict evicts it
   before the set fills). *)
let reuse_line = 1000
let filler_base = 50000

let reuse_sample ~gap spec rng =
  let engine = Factory.build spec scenario ~rng in
  ignore (engine.Engine.access ~pid:victim_pid reuse_line);
  for i = 1 to gap do
    ignore (engine.Engine.access ~pid:victim_pid (filler_base + i))
  done;
  Outcome.is_hit (engine.Engine.access ~pid:victim_pid reuse_line)

let reuse_closed_form spec ~gap =
  let e = Edge_probs.cache_collision spec () in
  let p0 = Edge_probs.find e "p0" and p4 = Edge_probs.find e "p4" in
  let fgap = float_of_int gap in
  match spec with
  | Spec.Newcache _ ->
    (* The paper's p4 = 1 abstracts Newcache's global random
       replacement: each of the victim's own [gap] misses evicts a
       uniformly random physical line, so the reuse line survives with
       probability (1 - 1/N)^gap — a real cost of the design that the
       micro-experiment exposes. *)
    let n = float_of_int Config.standard.Config.lines in
    p0 *. ((1. -. (1. /. n)) ** fgap)
  | _ -> p0 *. (p4 ** fgap)

let reuse_stage ctx ~samples ?(gap = 100) spec =
  stage ctx ~name:"edge-reuse"
    ~label:(Printf.sprintf "reuse p0*p4^%d" gap)
    ~closed_form:(reuse_closed_form spec ~gap) ~samples spec
    (reuse_sample ~gap)

(* Cross-context stage: victim fetches a shared line; attacker's
   immediate reload hits or not. *)
let cross_sample spec rng =
  let engine = Factory.build spec scenario ~rng in
  ignore (engine.Engine.access ~pid:victim_pid reuse_line);
  Outcome.is_hit (engine.Engine.access ~pid:attacker_pid reuse_line)

let cross_closed_form spec =
  let e = Edge_probs.flush_and_reload spec () in
  Edge_probs.find e "p0" *. Edge_probs.find e "p4"

let cross_context_stage ctx ~samples spec =
  stage ctx ~name:"edge-cross-context" ~label:"cross-context p0*p4"
    ~closed_form:(cross_closed_form spec) ~samples spec cross_sample

(* Every (spec, stage) cell draws from its own seed, derived from
   [ctx.seed] and the cell's position, and all 27 campaigns are
   submitted before the first await. *)
let table ctx ~samples =
  let stages =
    [
      (fun ctx spec -> eviction_stage ctx ~samples spec);
      (fun ctx spec -> reuse_stage ctx ~samples:(samples / 4) spec);
      (fun ctx spec -> cross_context_stage ctx ~samples:(samples / 4) spec);
    ]
  in
  Spec.all_paper
  |> List.concat_map (fun spec -> List.map (fun run -> (run, spec)) stages)
  |> List.mapi (fun i (run, spec) ->
         run (Run.with_seed (Rng.derive_seed ctx.Run.seed (i + 1)) ctx) spec)
  |> Driver.await_all

let render ms =
  let rows =
    List.map
      (fun m ->
        [
          m.arch;
          m.label;
          Table.fmt_prob m.closed_form;
          Table.fmt_prob m.measured;
          string_of_int m.samples;
        ])
      ms
  in
  "Edge-level validation: each architecture-dependent conditional\n\
   probability of Tables 3/5, measured from the simulator by a targeted\n\
   micro-experiment next to its closed form. (Newcache's reuse row uses\n\
   (1 - 1/N)^gap: its global random replacement self-evicts, a real cost\n\
   the paper's p4 = 1 abstracts away.)\n"
  ^ Table.render
      ~headers:[ "Cache"; "stage"; "closed form"; "measured"; "samples" ]
      ~rows ()
