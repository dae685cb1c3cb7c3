(** The attacker's cache-cleaning prerequisite (paper Section 5).

    Collision and flush-and-reload attacks need the security-critical data
    out of the cache first. One game: the attacker issues [accesses]
    distinct memory reads that map into the victim's cache set and wins
    if none of the victim's target lines still hits. The fraction of
    games won is the empirical counterpart of the paper's closed-form
    pre-PAS (which {!Cachesec_analysis.Prepas} computes analytically);
    [Driver.cleaning_game] estimates it as a sharded, optionally
    adaptive campaign of independent games.

    Per game: the victim fills the target set ([ways] of his lines; a
    single line for Newcache, whose success criterion is evicting one
    designated physical line; locked lines for PL — its intended use),
    then the attacker issues his reads, and success is judged by whether
    any victim target line still hits.

    Known model deviation (documented in DESIGN.md): for the RP cache the
    paper assumes the attacker can opt out of the permutation feature and
    clean like on an SA cache; our simulated RP always applies the
    randomized interference handling, so the Monte-Carlo estimate is
    {e lower} than the paper's SA-equal curve. *)

open Cachesec_cache

val clean_once :
  Spec.t -> rng:Cachesec_stats.Rng.t -> accesses:int -> bool
(** One game of the cleaning game on a fresh cache. *)
