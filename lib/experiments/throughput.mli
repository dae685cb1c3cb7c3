(** Simulator-throughput benchmark: accesses/second through
    [Engine.access] per architecture x replacement policy, exported as
    [BENCH_cache.json]. Every BENCH file is a
    {!Cachesec_telemetry.Flat_json} document, each section here one
    [to_row]/[of_row] pair over it, and every perf gate one {!Gate.t}. *)

open Cachesec_runtime
open Cachesec_telemetry

(** One perf-gate verdict, printed as one [gate ...] line. *)
module Gate : sig
  type t = {
    name : string;  (** e.g. ["bench_cache"] *)
    observable : string;  (** what [value] measures *)
    value : float option;  (** [None]: no value could be computed *)
    floor : float;  (** [value >= floor] passes *)
    hard : bool;  (** a soft gate reports without failing *)
    note : string;  (** appended inside a soft gate's [(reported...)] *)
  }

  val line : t -> string
  (** ["  gate <name> <observable> <value>x <verdict>\n"]: [PASS] or
      [FAIL] when hard (a hard gate without a value FAILs),
      [(reported<note>)] when soft. *)
end

val ratio : float -> float option -> float option
(** [num /. den] when [den] is present and positive. *)

val write_rows : schema:string -> ?span_id:int -> path:string -> string list -> unit
(** The BENCH envelope: rows under ["entries"], plus (when [span_id] is
    non-zero) a ["telemetry_span"] header cross-referencing the
    [TELEMETRY_*.json] of the same run. *)

type entry = {
  arch : string;
  policy : string;  (** a {!Cachesec_cache.Policy.to_string} spelling
      ("lru" .. "plru") or "secrand" (Newcache) *)
  accesses : int;  (** timed accesses (after a warm-up pass) *)
  seconds : float;  (** fastest repetition *)
  per_sec : float;  (** [accesses /. seconds] *)
  warmup : int;  (** warm-up accesses before the first stopwatch *)
  repeats : int;  (** timed repetitions behind [seconds]/[stddev] *)
  stddev : float;  (** of accesses/sec across the repetitions — the
      error bar; 0 for single-repetition (or v1-file) rows *)
  kernel : string;  (** [Engine.t.kernel]: the monomorphized kernel name
      or ["generic"]; [""] for rows read from a v1 file *)
  slab_bytes : int;  (** [Engine.t.slab_bytes]; 0 for v1 rows *)
}

val stddev_of : float list -> float
(** Standard deviation of the per-repetition rates behind a row's error
    bar — the POPULATION convention (divide by [n]): the repetitions
    ARE the complete set being described, not a sample from which a
    larger population's spread is inferred. [0.] below two values.
    Contrast {!Cachesec_stats.Summary.std}, which uses the unbiased
    SAMPLE convention ([n-1]) because a summary always holds a sample
    of a larger trial population. Both conventions are pinned by
    regression tests in test_stats. *)

val measure :
  ?accesses:int ->
  ?seed:int ->
  ?repeats:int ->
  ?kernel:Cachesec_cache.Kernel.selection ->
  Cachesec_cache.Spec.t ->
  entry
(** Time [accesses] engine accesses over a frozen mixed working set
    (hot 600-line region + 4096-line spread), after a warm-up pass.
    [repeats] (default 3) timed repetitions over the same addresses;
    the fastest is reported (minimum time is the standard estimator of
    unloaded cost) with the stddev of the per-repetition rates as the
    error bar. [?kernel] forwards to {!Cachesec_cache.Factory.build}
    ([Generic] measures the dispatching fallback). *)

val cases : unit -> Cachesec_cache.Spec.t list
(** The 29 benchmark rows: 8 policied architectures x {lru, random,
    fifo}, with the conventional SA cache swept across the full
    {!Cachesec_cache.Policy.all} registry instead, plus Newcache
    (SecRAND only). Rows missing from a committed baseline render as
    ["-"] in the vs-base column and never gate. *)

val bench : Run.ctx -> entry list
(** Measure every case (40k accesses each when [ctx.quick], 400k
    otherwise; 2 repetitions instead of 3 under [ctx.quick]). Each case
    is bracketed in a [throughput:<arch>] span with [accesses_per_sec] /
    [accesses] gauges plus [cache.kernel] (1.0 = monomorphized kernel,
    0.0 = generic fallback — gauges are floats; the name string is in
    the JSON row) and [cache.slab_bytes], reported only after the
    stopwatch has stopped — the timed loop is never instrumented. *)

val to_row : entry -> string
(** Schema [bench_cache/v2]: v1's keys plus [warmup], [repeats],
    [stddev], [kernel], [slab_bytes]. *)

val of_row : Flat_json.row -> (entry, Flat_json.error) result
(** Either schema version; v1 rows get [warmup = 0], [repeats = 1],
    [stddev = 0.], [kernel = ""], [slab_bytes = 0]. *)

val write : ?span_id:int -> path:string -> entry list -> unit
val read : path:string -> entry list
(** The rows {!of_row} accepts; [[]] if absent. *)

val find : entry list -> arch:string -> policy:string -> entry option

val gate : baseline:string -> entry list -> Gate.t
(** Hard gate: sa/lru accesses/sec over the same row of the [baseline]
    file (the frozen seed goalpost), floor 2.5x. *)

val render : ?baseline:string -> entry list -> string
(** Human-readable table; when [baseline] names a readable
    {!write}-format file, adds a per-row speedup column against it. *)

(** End-to-end attack throughput: whole attack trials per second
    (prime → victim encryption → probe → scoring) through the real
    harness via each attack's [run_span] — the unit Driver shards fan
    out — per attack class × representative architecture × replay path.
    Every case is measured twice in one run: [batched] (auto-selected
    [access_run] kernels, the production path) and [scalar]
    ([Kernel.Scalar]: the monomorphized per-access kernel looped by
    [run_of_scalar], the exact pre-batching cost model), so the
    batched/scalar ratio is a same-host controlled experiment. Exported
    as [BENCH_attacks.json] (schema [bench_attacks/v2]; [v1] files,
    which predate batching, still parse with their rows labelled
    [scalar]). The gate compares current batched rows against the
    committed baseline's scalar rows. *)
module Attacks : sig
  type entry = {
    attack : string;  (** "prime-probe" | "evict-time" | "flush-reload" | "collision" *)
    arch : string;
    path : string;  (** "batched" | "scalar" — replay path measured *)
    trials : int;  (** timed trials (after a warm-up span) *)
    seconds : float;
    per_sec : float;
  }

  val archs : Cachesec_cache.Spec.t list
  (** sa, newcache, rp — the three harness regimes (many small sets /
      one fully-associative "set" / randomized indexing). *)

  val classes : string list
  (** The four attack-class names, in benchmark row order. *)

  val measure :
    ?seed:int -> ?trials:int -> ?repeats:int ->
    ?kernel:Cachesec_cache.Kernel.selection ->
    string -> Cachesec_cache.Spec.t -> entry
  (** Time [trials] attack trials (one warm-up span of [trials/10]
      first), repeated [repeats] (default 3) times, keeping the fastest
      repetition — these rates feed a hard gate, and the minimum over
      repetitions is the standard estimator of unloaded cost (external
      load only ever adds time). [kernel] (default [Auto]) selects the
      replay path and labels the row ([Auto] → ["batched"], [Scalar] →
      ["scalar"]). Raises [Invalid_argument] on an unknown attack
      class. *)

  val bench : Run.ctx -> entry list
  (** Measure every class × arch × \{batched, scalar\} case at the FULL
      trial counts — the gate compares rates against a full-count
      baseline, and rates only transfer when per-span fixed costs
      amortize identically on both sides. [ctx.quick] economises on
      repetitions (2 instead of 3) rather than trials: variance, not
      bias. Each case is spanned as [attacks:<class>:<arch>:<path>]
      with [trials_per_sec] / [trials] gauges reported after its
      stopwatch has stopped. *)

  val to_row : entry -> string

  val of_row : Flat_json.row -> (entry, Flat_json.error) result
  (** Parses both [bench_attacks/v2] rows and pre-batching [v1] rows —
      the latter carry no [path] field and are labelled ["scalar"],
      which is what they measured. *)

  val write : ?span_id:int -> path:string -> entry list -> unit
  val read : path:string -> entry list

  val find :
    entry list -> attack:string -> arch:string -> path:string -> entry option

  val gate : baseline:string -> entry list -> Gate.t list
  (** One gate per class, in {!classes} order: the worst-case speedup
      of the class's batched rows over the [baseline] file's scalar
      rows across the measured architectures, floor 1.3x. Hard for
      prime-probe and evict-time, whose trial cost is dominated by
      batched runs; the rest report without failing. *)

  val render : ?baseline:string -> entry list -> string
end

(** Adaptive-stopping benchmark: the quick validation matrix run twice
    through the same adaptive machinery and batch plan — a [fixed] arm
    ([ci_width = 0.], never stops early, measures the CI widths the
    fixed budgets achieve) and an [adaptive] arm targeted at the fixed
    arm's worst achieved width. The trials ratio between the arms is
    what sequential stopping saves at matched worst-cell precision; it
    is seed-deterministic and jobs-invariant, so it gates hard.
    Wall-clock rides along (reported, compared against the committed
    baseline's adaptive rows, never gated). Rows are exported into
    [BENCH_e2e.json] alongside the pipelining rows (schema
    [bench_e2e/v2]). *)
module Adaptive : sig
  type entry = {
    arm : string;  (** "fixed" | "adaptive" *)
    jobs : int;
    cores : int;
    cells : int;
    trials : int;  (** attack trials executed across the matrix *)
    caps : int;  (** total trial budget of the same cells *)
    width : float;  (** worst achieved CI half-width across the cells *)
    seconds : float;
  }

  val confidence : float
  (** Confidence level both arms measure at (0.95). *)

  val bench : Run.ctx -> entry list
  (** Always quick scale; each arm spanned as [adaptive:<arm>] with
      [seconds] / [trials] / [ci_width] gauges. Returns
      [[fixed; adaptive]]. *)

  val to_row : entry -> string

  val of_row : Flat_json.row -> (entry, Flat_json.error) result
  (** Adaptive rows are the ones carrying ["arm"]. *)

  val read : path:string -> entry list
  (** The adaptive rows of a [BENCH_e2e.json]; [[]] when absent. *)

  val gate : entry list -> Gate.t
  (** The within-run trials ratio fixed/adaptive, floor 2.0x. Hard on
      every host: the ratio is a function of the seeds alone. *)

  val render : ?baseline:string -> entry list -> string
end

(** End-to-end harness throughput: wall-clock of whole report sections —
    the quick-scale validation matrix (36 cells) and the experimental
    figures (9 and 10) — measured twice, with strictly sequential
    campaign execution and with cross-campaign pipelining over the
    persistent Domain pool. Both arms run identical trials under
    identical seeds, so the sequential/pipelined ratio isolates what the
    pool buys: later campaigns' shards filling worker idle time at
    earlier campaigns' join barriers. Exported as [BENCH_e2e.json]
    (schema [bench_e2e/v2], with the {!Adaptive} rows); the committed
    [bench/BENCH_e2e.baseline.json] was recorded pre-refactor and feeds
    the [vs base] trajectory column. *)
module E2e : sig
  type entry = {
    section : string;  (** "validation-matrix" | "figures" *)
    mode : string;  (** "sequential" | "pipelined" *)
    jobs : int;  (** resolved worker count of the run *)
    cores : int;  (** [Domain.recommended_domain_count] on the host *)
    units : int;  (** work units in the section (cells / figures) *)
    seconds : float;
  }

  val sections : string list
  (** Benchmark section names, in row order. *)

  val bench : Run.ctx -> entry list
  (** Run both sections in both modes (sequential arm first), always at
      quick scale; each (mode, section) is spanned as
      [e2e:<mode>:<section>] with [seconds] / [units] gauges. Results
      are bit-identical between the arms — only the wall-clock differs
      (enforced by test_runtime's pipelined-equivalence cases). *)

  val to_row : entry -> string

  val of_row : Flat_json.row -> (entry, Flat_json.error) result
  (** Section rows are the ones carrying ["section"]. *)

  val write :
    ?span_id:int -> ?adaptive:Adaptive.entry list -> path:string ->
    entry list -> unit
  (** Schema [bench_e2e/v2]: the pipelining rows, then the [adaptive]
      rows, in one entries array. *)

  val read : path:string -> entry list
  (** The section rows of a [BENCH_e2e.json]; [[]] when absent. *)

  val gate : entry list -> Gate.t
  (** The pipelining gate: total sequential seconds over total
      pipelined seconds, floor 1.3x, hard when the run
      could demonstrate parallelism (host cores >= 4 and jobs >= 4) and
      reported otherwise — on a small host there are no idle workers to
      fill, so a ratio near 1.0 is the expected honest answer, not a
      regression. *)

  val render : ?baseline:string -> entry list -> string
end
