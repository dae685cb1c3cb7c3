(** Type 1 — the evict-and-time attack (paper Algorithm 1, Figure 3).

    Each trial: the victim's tables are warm; the attacker evicts the
    cache set holding one chosen line of the target table; the victim
    encrypts a random plaintext; the attacker observes the whole block's
    execution time (plus the cache's Gaussian observation noise) and
    accumulates it in the bin of the targeted plaintext byte. Plaintext
    byte values whose first-round lookup [p XOR k] lands on the evicted
    line show a longer average time, which identifies the key byte's high
    nibble. *)


type config = {
  trials : int;
  target_byte : int;  (** which of the 16 key bytes to attack *)
  target_table_line : int;  (** which line of that byte's table to evict *)
  lock_victim_tables : bool;
      (** exercise the PL cache's intended use: prefetch-and-lock the
          tables before the attack (no-op on other architectures) *)
}

val default_config : config
(** 50000 trials, byte 0, table line 3, no locking. (The victim's later
    rounds touch most table lines anyway, so the per-trial contrast is a
    fraction of a miss — recovery needs tens of thousands of trials, just
    as the original attacks did.) *)

type result = {
  avg_times : float array;  (** 256 bins: mean observed block time per
                                plaintext-byte value (Figure 9's curve) *)
  counts : int array;
  scores : float array;  (** per key-byte-candidate score *)
  best_candidate : int;
  true_byte : int;
  nibble_recovered : bool;  (** line-granularity success *)
  separation : float;  (** z-score of the winning candidate *)
}

val run : victim:Victim.t -> attacker_pid:int -> rng:Cachesec_stats.Rng.t -> config -> result
(** [run] is [run_span] over the whole trial range followed by
    {!finalize} — the serial reference path. *)

(** {2 Sharded execution}

    The trial loop decomposes into mergeable partial accumulators so the
    Domain-parallel trial runtime can execute disjoint spans of the trial
    index space against independent per-shard victims and fold the spans
    back together (associatively, in span order). *)

type partial
(** Per-plaintext-byte timing sums and counts for a span of trials,
    plus a Welford summary of every observed time for {!observe}. *)

val empty_partial : unit -> partial
val merge_into : partial -> partial -> unit
(** Fold the right partial into the left in place, allocation-free —
    the campaign merge loops consume each partial exactly once, so
    mutating the running accumulator is safe. The right argument is
    unchanged. *)

val observe : partial -> Cachesec_stats.Sequential.observation
(** The adaptive runtime's estimator hook: a [Mean_rel] over the span's
    observed block times — the stopping rule pins the mean observed time
    to a relative half-width. Derived from the merged partial only; the
    trial loop is unchanged. *)

val run_span :
  victim:Victim.t ->
  attacker_pid:int ->
  rng:Cachesec_stats.Rng.t ->
  first:int ->
  count:int ->
  config ->
  partial
(** Execute global trials [first+1 .. first+count]. The config's
    [trials] field is ignored by the span (the span length is [count]);
    the global index keys the attacker's conflict-line base rotation. *)

val finalize : victim:Victim.t -> config -> partial -> result
