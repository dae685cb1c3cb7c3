(** Closed-form pre-PAS: the probability that an attacker cleans the
    victim's cache set within k memory accesses (paper Section 5,
    Figure 8).

    Under LRU the attacker succeeds deterministically once k reaches the
    associativity; under random replacement cleaning is the ball-picking
    game whose success probability is the inclusion-exclusion
    coupon-collector sum.

    {b Exact vs curve-fit.} Every formula in this module is an exact
    closed form for the corresponding engine under the cleaning game —
    none is a curve fit. [sa_lru], [sa_fifo] and [sa_plru] are the
    paper's Equation (10) step; [sa_random] is the Equation (11)
    coupon-collector sum; [sa_mru], [sa_lfu] and [sa_mfu] follow from
    the self-thrashing argument below and are cross-checked against
    Monte-Carlo simulation in the test suite. Each policy owns its own
    arm in {!sa} — no two policies share a pattern — so adding a policy
    forces an explicit (compiler-checked) decision about its formula. *)

open Cachesec_cache

val sa_lru : ways:int -> k:int -> float
(** Equation (10): the step function 1{k >= ways}. Exact. *)

val sa_fifo : ways:int -> k:int -> float
(** FIFO cleans like LRU — the attacker's k distinct misses are always
    the set's k oldest fills, so queue order and recency order agree —
    but the formula is its own definition, not an alias. Exact. *)

val sa_random : ways:int -> k:int -> float
(** Equation (11): P(all [ways] slots picked in [k] uniform draws).
    Exact. *)

val sa_mru : ways:int -> k:int -> float
(** 1{ways = 1 && k >= 1}: under MRU the attacker self-thrashes — each
    miss evicts the attacker's own previous fill (the most recently
    used line) — so at most one victim line is ever cleaned and the
    game succeeds only in a single-way set. Exact. *)

val sa_lfu : ways:int -> k:int -> float
(** 1{ways = 1 && k >= 1}: every line in the cleaning game ties at
    frequency 1 and the first-occurrence tie-break re-selects the same
    way forever, so LFU self-thrashes exactly like {!sa_mru}. Exact. *)

val sa_mfu : ways:int -> k:int -> float
(** 1{ways = 1 && k >= 1}: the all-equal-frequency tie-break makes MFU
    indistinguishable from LFU in the cleaning game. Exact. *)

val sa_plru : ways:int -> k:int -> float
(** 1{k >= ways}: from any tree state, [ways] consecutive misses visit
    [ways] distinct leaves (each fill points the tree away from itself),
    so tree-PLRU cleans on the same step as true LRU. Non-power-of-two
    geometries use the engine's LRU fallback — the same step. Exact. *)

val sa :
  ways:int -> k:int -> policy:Policy.t -> float
(** Per-policy dispatch over the seven arms above; exhaustive, so a new
    {!Cachesec_cache.Policy} constructor is a compile error here until
    its formula is written. *)

val cleaning_limit :
  ?victim_lines_in_set:int -> ?prefetched:bool -> Spec.t -> float
(** The k -> infinity limit of {!for_spec}: the probability an
    unbounded attacker ever cleans the victim's lines. Every closed
    form is eventually constant in k (Random's coupon sum converges to
    1), so the limit is exactly 0. or 1. — the "cleanable at all" bit
    used by the policy resilience table. *)

val newcache : logical_lines:int -> k:int -> float
(** Section 5B: 1 - (1 - 1/n)^k for evicting one designated physical
    line, where n is the attacker-visible eviction space. The paper
    writes n = 2^n; with the paper's configuration we take the physical
    line count (512). *)

val sp : k:int -> float
(** 0: partitions make cleaning impossible (Section 5C). *)

val pl_locked : k:int -> float
(** 0 when the security-critical lines were prefetched and locked. *)

val pl_unlocked : ways:int -> k:int -> policy:Policy.t -> float
(** Without prefetching, PL behaves as a conventional SA cache. *)

val rp : ways:int -> k:int -> policy:Policy.t -> float
(** Section 5D: the attacker disables his own permutation, so RP cleans
    like SA. *)

val rf : ways:int -> k:int -> policy:Policy.t -> float
(** Section 5E: the attacker sets his window to zero, degrading to SA. *)

val re : ways:int -> interval:int -> k:int -> policy:Policy.t -> float
(** Section 5F: periodic evictions are free lunches — the attacker
    effectively gets k + floor(k / interval) evictions. *)

val nomo :
  ways:int ->
  reserved:int ->
  victim_lines_in_set:int ->
  k:int ->
  policy:Policy.t ->
  float
(** Section 5G: 0 when the victim fits in the reserved ways; otherwise
    the SA game over the (1 - alpha) w shared ways. *)

val for_spec :
  ?victim_lines_in_set:int -> ?prefetched:bool -> Spec.t -> k:int -> float
(** Dispatch with the paper's assumptions: PL prefetched+locked by
    default, Nomo victim exceeding its reservation by default
    ([victim_lines_in_set] defaults to [ways], the cleaning game's
    seeding), policies taken from the spec. *)

val figure8_series :
  specs:(string * Spec.t) list -> ks:int list -> (string * (int * float) list) list
(** Named (k, pre-PAS) curves — the series of the paper's Figure 8. *)
