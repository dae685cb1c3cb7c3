(** Edge-level validation: measure the paper's conditional probabilities
    directly from the simulator with targeted micro-experiments, instead
    of only checking end-to-end attack outcomes.

    Three measurable stages cover every architecture-dependent edge of
    Tables 3 and 5:

    - {e eviction stage} (p1·p2·p3 of evict-and-time): the victim fills
      his set, the attacker performs exactly one fresh conflicting
      access, and we observe whether one designated victim line is gone;
    - {e reuse stage} (p0·p4^gap of the collision attack): the victim
      touches a line, performs [gap] unrelated accesses, touches it
      again, and we observe the hit;
    - {e cross-context stage} (p0·p4 of flush-and-reload): the victim
      fetches a shared line and the attacker's immediate reload either
      hits or does not.

    Each stage is a {!Driver.bernoulli} campaign over independent
    samples on fresh caches (span [edge-<stage>:<cache>]), submitted on
    the given context: sharded over [ctx.jobs] without changing the
    result, and reported next to the closed form computed by
    {!Cachesec_analysis.Edge_probs} from the same spec. *)

open Cachesec_runtime

type measurement = {
  label : string;
  arch : string;
  closed_form : float;
  measured : float;
  samples : int;
}

val eviction_stage :
  Run.ctx -> samples:int -> Cachesec_cache.Spec.t -> measurement Driver.pending
(** For Nomo the designated line is one that spilled into a shared way
    (the paper's interference case). *)

val reuse_stage :
  Run.ctx -> samples:int -> ?gap:int -> Cachesec_cache.Spec.t ->
  measurement Driver.pending
(** [gap] defaults to 100 unrelated victim accesses between the two
    touches (amplifies RE's per-access decay into a measurable range). *)

val cross_context_stage :
  Run.ctx -> samples:int -> Cachesec_cache.Spec.t -> measurement Driver.pending

val table : Run.ctx -> samples:int -> measurement list
(** All three stages for the nine caches: [samples] eviction samples and
    [samples / 4] for each of the other two stages. Each of the 27
    cells runs on its own seed derived from [ctx.seed]. *)

val render : measurement list -> string
