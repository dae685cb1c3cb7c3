open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_runtime
open Cachesec_telemetry

(* --- pending campaigns ------------------------------------------------ *)

(* A campaign whose shards have been dispatched onto the pool but whose
   merge has not happened yet. [await] is memoizing (value or failure),
   so a pending can be passed around and joined from exactly one place
   without double-folding or double-closing its span. *)
type 'a state =
  | Thunk of (unit -> 'a)
  | Value of 'a
  | Error of exn * Printexc.raw_backtrace

type 'a pending = { mutable state : 'a state }

let await p =
  match p.state with
  | Value v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Thunk f ->
    (match f () with
    | v ->
      p.state <- Value v;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      p.state <- Error (e, bt);
      Printexc.raise_with_backtrace e bt)

let pending_value v = { state = Value v }
let pending_of_thunk f = { state = Thunk f }
let map_pending f p = { state = Thunk (fun () -> f (await p)) }
let await_all ps = List.map await ps

(* Per-attack shard sizes. They are properties of the *experiment
   definition*, never of the worker count: changing [jobs] must not
   change the batch plan, or determinism across job counts is lost.
   Sizes are chosen so a typical full-scale run yields enough batches to
   keep every core busy while a quick-scale run stays in one batch. *)
let evict_time_batch = 4096 (* also the attacker's base-rotation period *)
let prime_probe_batch = 256
let collision_batch = 8192
let flush_reload_batch = 256
let bernoulli_batch = 250

(* Engine and attack-trial counters -> telemetry, sampled once per
   finished batch (the engines' zero-alloc access path is never touched:
   [counters ()] takes an ordinary snapshot after the batch's trial
   slice has run). Each batch owns a fresh engine, so its snapshot is
   exactly the batch's traffic, and the merged totals are
   jobs-invariant. A global [attacks.trials] plus a per-class
   [attacks.<class>.trials] record how much attack work each campaign
   actually executed (and line the attack-throughput bench's counters
   up with its gauges). *)
let sample_counters tm (s : Setup.t) ~attack trials =
  if not (Telemetry.is_null tm) then begin
    let c = s.Setup.engine.Engine.counters () in
    Telemetry.count tm "cache.accesses" c.Counters.accesses;
    Telemetry.count tm "cache.hits" c.Counters.hits;
    Telemetry.count tm "cache.misses" c.Counters.misses;
    Telemetry.count tm "cache.evictions" c.Counters.evictions;
    Telemetry.count tm "cache.read_throughs" c.Counters.read_throughs;
    Telemetry.count tm "cache.flushes" c.Counters.flushes;
    Telemetry.count tm "attacks.trials" trials;
    Telemetry.count tm ("attacks." ^ attack ^ ".trials") trials
  end

(* --- campaigns -------------------------------------------------------- *)

(* One experiment, defined once: everything either run mode needs. The
   partial type ['p] is existential — only the campaign's own shard,
   merge, observe and finalize ever see it. [total] is the fixed plan's
   trial count; an adaptive run replaces it with [target.max_trials].
   [observe] and [finalize] get the number of trials that actually ran,
   because some partials (cleaning-game win counts) do not carry their
   own denominator. *)
type 'r campaign =
  | Campaign : {
      name : string;
      default_batch : int;
      total : int;
      shard : Run.ctx -> Scheduler.batch -> 'p;
      merge : 'p -> 'p -> 'p;
      observe : trials:int -> 'p -> Sequential.observation;
      finalize : Run.ctx -> trials:int -> 'p -> 'r;
    }
      -> 'r campaign

(* The four attack campaigns share one shard: a fresh world (engine,
   victim, RNG) seeded from the batch index, the attack's [run_span]
   over the batch's slice, counters sampled once the slice has run
   (the per-class counter is the span name's slug: [evict_time] for
   [evict-time]). The reference victim finalize scores against (keys,
   table layout) is a function of the run seed only, identical across
   batches — see Setup.make. *)
let attack ~name ~default_batch ~total spec ~run_span ~merge_into ~observe
    ~finalize =
  let slug = String.map (function '-' -> '_' | ch -> ch) name in
  Campaign
    {
      name = name ^ ":" ^ Spec.name spec;
      default_batch;
      total;
      shard =
        (fun ctx b ->
          let s = Setup.make ~seed:(Run.batch_seed ctx b.Scheduler.index) spec in
          let p = run_span s b in
          sample_counters ctx.Run.telemetry s ~attack:slug b.Scheduler.count;
          p);
      (* Adapt the in-place [merge_into] to the pure-merge shape: both
         the index-order fold in [submit] and [Adaptive.await]'s round
         fold consume each batch partial exactly once into a running
         left accumulator, so folding the right side into the left and
         returning it is equivalent to the pure merge — without
         allocating a fresh accumulator per batch. *)
      merge =
        (fun a b ->
          merge_into a b;
          a);
      observe = (fun ~trials:_ p -> observe p);
      finalize =
        (fun ctx ~trials:_ p ->
          finalize ~victim:(Setup.make ~seed:ctx.Run.seed spec).Setup.victim p);
    }

let evict_time spec (c : Evict_time.config) =
  attack ~name:"evict-time" ~default_batch:evict_time_batch
    ~total:c.Evict_time.trials spec
    ~run_span:(fun (s : Setup.t) (b : Scheduler.batch) ->
      Evict_time.run_span ~victim:s.victim ~attacker_pid:s.attacker_pid
        ~rng:s.rng ~first:b.first ~count:b.count c)
    ~merge_into:Evict_time.merge_into ~observe:Evict_time.observe
    ~finalize:(Evict_time.finalize c)

let prime_probe spec (c : Prime_probe.config) =
  attack ~name:"prime-probe" ~default_batch:prime_probe_batch
    ~total:c.Prime_probe.trials spec
    ~run_span:(fun (s : Setup.t) (b : Scheduler.batch) ->
      Prime_probe.run_span ~victim:s.victim ~attacker_pid:s.attacker_pid
        ~rng:s.rng ~count:b.count c)
    ~merge_into:Prime_probe.merge_into ~observe:Prime_probe.observe
    ~finalize:(Prime_probe.finalize c)

let collision spec (c : Collision.config) =
  attack ~name:"collision" ~default_batch:collision_batch
    ~total:c.Collision.trials spec
    ~run_span:(fun (s : Setup.t) (b : Scheduler.batch) ->
      Collision.run_span ~victim:s.victim ~rng:s.rng ~count:b.count c)
    ~merge_into:Collision.merge_into ~observe:Collision.observe
    ~finalize:(Collision.finalize c)

let flush_reload spec (c : Flush_reload.config) =
  attack ~name:"flush-reload" ~default_batch:flush_reload_batch
    ~total:c.Flush_reload.trials spec
    ~run_span:(fun (s : Setup.t) (b : Scheduler.batch) ->
      Flush_reload.run_span ~victim:s.victim ~attacker_pid:s.attacker_pid
        ~rng:s.rng ~count:b.count c)
    ~merge_into:Flush_reload.merge_into ~observe:Flush_reload.observe
    ~finalize:(Flush_reload.finalize c)

(* A campaign of i.i.d. Bernoulli trials: each batch seeds one RNG from
   its index and plays its [count] trials, each on a [Rng.split] of it;
   the partial is a win count. *)
let bernoulli ~name ~samples trial =
  if samples <= 0 then
    invalid_arg ("Driver.bernoulli: " ^ name ^ " samples must be positive");
  Campaign
    {
      name;
      default_batch = bernoulli_batch;
      total = samples;
      shard =
        (fun ctx b ->
          let rng = Rng.create ~seed:(Run.batch_seed ctx b.Scheduler.index) in
          let wins = ref 0 in
          for _ = 1 to b.Scheduler.count do
            if trial (Rng.split rng) then incr wins
          done;
          !wins);
      merge = ( + );
      observe =
        (fun ~trials wins ->
          Sequential.Proportion { successes = float_of_int wins; trials });
      finalize =
        (fun _ ~trials wins -> float_of_int wins /. float_of_int trials);
    }

let cleaning_game spec ~accesses ~samples =
  bernoulli ~name:("cleaning-game:" ^ Spec.name spec) ~samples (fun rng ->
      Cleaner.clean_once spec ~rng ~accesses)

(* --- fixed-plan runs -------------------------------------------------- *)

(* The campaign shape, split at the submit/await seam: [submit] opens
   the experiment span, plans the batches and dispatches the shard tasks
   onto the pool (tagged with the span so batch events nest under it) —
   returning without blocking. The returned pending's join folds the
   partials in batch order, bumps the driver counters and finalizes.
   Pipelining across campaigns is calling several [submit]s before the
   first [await]. *)
let submit (ctx : Run.ctx) (Campaign c) =
  let tm = ctx.Run.telemetry in
  let sp = Telemetry.span tm ~parent:ctx.Run.parent c.name in
  Telemetry.gauge tm ~span:sp "trials" (float_of_int c.total);
  match
    let batch_size = Option.value ctx.Run.batch ~default:c.default_batch in
    let plan = Scheduler.plan ~total:c.total ~batch_size in
    (plan, Scheduler.submit_map ?jobs:ctx.Run.jobs ~tm ~span:sp (c.shard ctx) plan)
  with
  | exception e ->
    (* Serial submits run shards eagerly: close the span on the way out. *)
    Telemetry.close_span tm sp;
    raise e
  | plan, shards ->
    pending_of_thunk (fun () ->
        match Scheduler.await shards with
        | exception e ->
          Telemetry.close_span tm sp;
          raise e
        | parts ->
          if not (Telemetry.is_null tm) then begin
            Telemetry.count tm "driver.batches" (Array.length plan);
            Telemetry.count tm "driver.trials" c.total
          end;
          (* The scheduler's index-order fold: "merge in batch order"
             has one definition. [what] attributes an empty-plan
             failure to the campaign. *)
          let merged =
            Scheduler.fold_results ~what:(c.name ^ " partials") ~merge:c.merge
              parts
          in
          let v = c.finalize ctx ~trials:c.total merged in
          Telemetry.close_span tm sp;
          v)

(* --- adaptive (run-to-confidence) campaigns --------------------------- *)

type 'a adaptive = {
  value : 'a;
  trials : int;
  cap : int;
  rounds : int;
  stopped_early : bool;
  achieved : float;
}

(* Adaptive campaigns shard finer than fixed ones: the geometric rounds
   need several batch boundaries inside the cap to have anywhere to
   stop. Still a pure function of the experiment definition (cap and
   the attack's default size), never of [jobs] — so adaptive runs stay
   bit-identical across job counts. Fixed campaigns keep their exact
   PR-8 plans; only the adaptive variants use the finer grain. *)
let adaptive_batch ~default_batch ~cap =
  Stdlib.max 1 (Stdlib.min default_batch ((cap + 7) / 8))

(* The adaptive analogue of [submit]: same span/telemetry shape, but the
   batch plan is partitioned into geometric rounds and the pending's
   join drives [Adaptive.await], recording how many trials actually
   ran. The campaign's [observe] maps cumulative merged partials to the
   estimator the stopping rule tests. *)
let submit_adaptive (ctx : Run.ctx) ~(target : Sequential.target)
    (Campaign c) =
  let name = c.name ^ ":adaptive" in
  let cap = target.Sequential.max_trials in
  let tm = ctx.Run.telemetry in
  let sp = Telemetry.span tm ~parent:ctx.Run.parent name in
  Telemetry.gauge tm ~span:sp "trials_cap" (float_of_int cap);
  match
    let batch_size =
      Option.value ctx.Run.batch
        ~default:(adaptive_batch ~default_batch:c.default_batch ~cap)
    in
    let plan =
      Adaptive.plan
        ~start:(Stdlib.max batch_size target.Sequential.min_trials)
        ~total:cap ~batch_size ()
    in
    let keep_going ~trials merged =
      Sequential.decide target ~trials (c.observe ~trials merged)
      = Sequential.Continue
    in
    Adaptive.submit ?jobs:ctx.Run.jobs ~tm ~span:sp ~what:name
      ~shard:(c.shard ctx) ~merge:c.merge ~keep_going plan
  with
  | exception e ->
    Telemetry.close_span tm sp;
    raise e
  | running ->
    pending_of_thunk (fun () ->
        match Adaptive.await running with
        | exception e ->
          Telemetry.close_span tm sp;
          raise e
        | prog ->
          let trials = prog.Adaptive.trials in
          if not (Telemetry.is_null tm) then begin
            Telemetry.count tm "driver.batches" prog.Adaptive.batches_run;
            (* Actual trials executed, post-early-stop — NOT the cap
               (which the "trials_cap" gauge above records). *)
            Telemetry.count tm "driver.trials" trials;
            Telemetry.count tm "driver.trials_saved" (cap - trials);
            Telemetry.gauge tm ~span:sp "trials" (float_of_int trials)
          end;
          let achieved =
            Sequential.achieved
              (c.observe ~trials prog.Adaptive.merged)
              ~confidence:target.Sequential.confidence
          in
          let v =
            {
              value = c.finalize ctx ~trials prog.Adaptive.merged;
              trials;
              cap;
              rounds = prog.Adaptive.rounds_run;
              stopped_early = prog.Adaptive.stopped_early;
              achieved;
            }
          in
          Telemetry.close_span tm sp;
          v)

