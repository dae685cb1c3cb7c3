(** Ablation sweeps over the design parameters DESIGN.md calls out:
    the RF window, the RE eviction interval, the noisy cache's sigma and
    Nomo's reservation. Each sweep reports the analytical PIFG prediction
    next to a simulated attack outcome.

    Every sweep fans its trials out over the Domain-parallel trial
    runtime and is wrapped in a telemetry span [ablation:<sweep>]; the
    rendered tables are independent of [ctx.jobs]. *)

open Cachesec_runtime

val render_rf_window : Run.ctx -> string
(** Cache-collision attack vs the random-fill window size: the paper's
    p0 = 1/(Wa+Wb+1) against recovery of the key-byte XOR. *)

val render_re_interval : Run.ctx -> string
(** Cache-collision attack vs the random-eviction interval: p4 =
    1 - 1/(N T). *)

val render_noise_sigma : Run.ctx -> string
(** Evict-and-time vs sigma: p5 = Phi(1/(2 sigma)), the trials an
    averaging attacker needs, and the empirical outcome. *)

val render_nomo_reserved : Run.ctx -> string
(** Evict-and-time vs Nomo's reserved ways: protection appears exactly
    when the victim's per-set footprint fits the reservation. *)

val render_replacement_policy : Run.ctx -> string
(** Evict-and-time under LRU vs random vs FIFO: deterministic policies
    make the eviction stage certain, which is why the paper evaluates
    with random replacement. *)

val render : Run.ctx -> string
(** All five sweeps. Each sweep keeps its historical seed (11..15)
    whatever [ctx.seed] is; [ctx] still supplies scale, jobs and
    telemetry. *)
