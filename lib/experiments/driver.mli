(** The trial runtime's experiments-side driver.

    Every Monte-Carlo experiment in this layer is one {!campaign} value:
    a batch plan over the trial index space
    ({!Cachesec_runtime.Scheduler.plan}) in which each batch builds its
    own fully independent world seeded from the pure hash
    {!Cachesec_runtime.Run.seed_for_batch} — a fresh {!Setup.t}
    (engine, victim, RNG) running the attack's [run_span] over its
    slice, or one RNG for a {!bernoulli} campaign's trials — and the
    mergeable partials are folded back together in batch order. Because
    the plan and the seeds depend only on the experiment definition
    (never on [jobs]), running with [jobs:1] and [jobs:n] produces
    bit-identical results; [jobs] buys wall-clock only.

    A campaign runs in one of two ways: {!submit} executes its fixed
    plan, {!submit_adaptive} stops at a confidence target. Both take one
    {!Cachesec_runtime.Run.ctx} (seed, worker count, batch override,
    telemetry) and return an ['a pending]: the campaign's span is opened
    and its shard tasks dispatched onto the persistent
    {!Cachesec_runtime.Pool} immediately, while the batch-order merge,
    driver counters and finalize run at {!await}. The blocking form is
    [await (submit ctx c)]. Submitting several campaigns before the
    first await pipelines them — their shards share the one pool queue,
    so workers never idle at a campaign's join barrier while another
    campaign has runnable shards. Results are bit-identical between
    sequential and pipelined execution (merges are deferred, never
    reordered); with [jobs <= 1] a submit runs eagerly and pipelining
    degrades to the sequential order.

    With an active telemetry context each campaign is wrapped in a span
    named after it (nested under [ctx.parent]), the scheduler emits
    per-batch and per-domain events under it, and the engines'
    {!Cachesec_cache.Counters} are sampled into telemetry counters once
    per finished batch — the per-access hot path is never
    instrumented. *)

open Cachesec_cache
open Cachesec_attacks
open Cachesec_stats
open Cachesec_runtime

(** {1 Pending campaigns} *)

type 'a pending
(** A submitted campaign whose merge/finalize has not run yet. Join with
    {!await} (memoizing: a second await returns the cached value or
    re-raises the cached failure). *)

val await : 'a pending -> 'a
(** Block until the campaign's shards finished, fold the partials in
    batch order, record driver counters, finalize and close the
    campaign's span. Re-raises the first shard failure with its
    backtrace. Must be called from outside the pool. *)

val await_all : 'a pending list -> 'a list
(** [List.map await] — join in list (i.e. submission) order. *)

val pending_value : 'a -> 'a pending
(** An already-available result, for mixing computed-inline values into
    a pending pipeline. *)

val pending_of_thunk : (unit -> 'a) -> 'a pending
(** Defer arbitrary join logic (run once, memoized) — used by layers
    that need to close their own telemetry spans around an inner
    {!await}. *)

val map_pending : ('a -> 'b) -> 'a pending -> 'b pending
(** Post-process a campaign's result at await time (e.g. wrap a raw
    attack result into a report cell) without forcing the join now. *)

(** {1 Campaigns} *)

type 'r campaign
(** One experiment producing an ['r]: its span name, default batch
    size, trial total, per-batch shard, batch-order merge, stopping
    estimator and finalize. The partial type the shards produce is
    hidden. Building a campaign runs nothing. *)

val evict_time : Spec.t -> Evict_time.config -> Evict_time.result campaign
(** Span [evict-time:<cache>]. Stops (adaptively) on the mean observed
    encryption time ({!Evict_time.observe}, relative half-width). *)

val prime_probe : Spec.t -> Prime_probe.config -> Prime_probe.result campaign
(** Span [prime-probe:<cache>]. Stops on the best candidate's per-trial
    hit rate ({!Prime_probe.observe}, Wilson half-width). *)

val collision : Spec.t -> Collision.config -> Collision.result campaign
(** Span [collision:<cache>]; stops on {!Collision.observe}. *)

val flush_reload :
  Spec.t -> Flush_reload.config -> Flush_reload.result campaign
(** Span [flush-reload:<cache>]; stops on {!Flush_reload.observe}. *)

val bernoulli :
  name:string -> samples:int -> (Rng.t -> bool) -> float campaign
(** Span [name]: the fraction of [samples] independent trials that
    return [true]. Each batch seeds one generator from
    {!Cachesec_runtime.Run.batch_seed} and runs every trial of its slice
    on a {!Cachesec_stats.Rng.split} of it. Stops on the success rate's
    Wilson half-width. Raises [Invalid_argument] unless [samples > 0]. *)

val cleaning_game : Spec.t -> accesses:int -> samples:int -> float campaign
(** {!bernoulli} over {!Cleaner.clean_once}, span
    [cleaning-game:<cache>]: the fraction of cleaning-game wins over
    [samples] independent games of [accesses] attacker reads. *)

val submit : Run.ctx -> 'r campaign -> 'r pending
(** Run the campaign's fixed plan of [trials] (the attack config's
    [trials], or [samples]). The span carries a [trials] gauge. *)

(** {1 Adaptive (run-to-confidence) campaigns}

    {!submit_adaptive} executes the same batch plan as a fixed campaign
    capped at [target.max_trials], but partitioned into
    deterministic geometrically-growing rounds
    ({!Cachesec_runtime.Adaptive}): after each round the cumulative
    batch-order merge is handed to the campaign's stopping estimator
    and {!Cachesec_stats.Sequential.decide} chooses between
    stopping and dispatching the next round. The decision is a function
    of [(seed, round plan, merged estimate)] only — never of [jobs] —
    so adaptive runs keep the jobs:1 ≡ jobs:N and sequential ≡
    pipelined bit-identity of the fixed paths.

    Adaptive campaigns default to a finer batch size
    ([min default_batch (ceil (cap / 8))]) so quick-scale caps contain
    several round boundaries; [ctx.batch] still overrides it. The
    campaign's own total (the attack config's [trials], the cleaning
    game's [samples]) is ignored — the cap is [target.max_trials].

    Telemetry: the campaign span carries a [trials_cap] gauge at submit
    and a [trials] gauge (actual executed, post-early-stop) at await;
    [driver.trials] counts actual trials and [driver.trials_saved]
    counts [cap - actual]. *)

type 'a adaptive = {
  value : 'a;  (** the finalized result, over the trials that ran *)
  trials : int;  (** trials actually executed *)
  cap : int;  (** [target.max_trials] *)
  rounds : int;  (** rounds executed *)
  stopped_early : bool;  (** true iff the stopping rule fired below cap *)
  achieved : float;
      (** the final merged estimate's CI half-width at
          [target.confidence] (absolute for proportion estimators,
          relative for mean estimators — see
          {!Cachesec_stats.Sequential.achieved}) *)
}

val submit_adaptive :
  Run.ctx -> target:Sequential.target -> 'r campaign -> 'r adaptive pending
(** Run the campaign to [target], under the span [<name>:adaptive]. *)
