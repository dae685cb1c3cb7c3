(** End-to-end validation matrix: run every attack against every
    architecture in the simulator and compare the empirical outcome with
    the PIFG prediction (the role of the paper's Section 6). *)

open Cachesec_runtime

type cell = {
  arch : string;
  attack : Cachesec_analysis.Attack_type.t;
  pas : float;  (** analytical prediction *)
  predicted_leak : bool;  (** PAS above the resilience threshold *)
  recovered : bool;  (** did the simulated attack recover the nibble? *)
  separation : float;
  agrees : bool;  (** empirical outcome matches the prediction *)
  note : string;  (** explanation for the documented disagreements *)
  trials : int;  (** attack trials actually executed for this cell *)
  max_trials : int;  (** the cell's trial budget (= [trials] when fixed) *)
  ci_half_width : float;
      (** achieved CI half-width of the cell's stopping estimator
          ({!Cachesec_stats.Sequential.achieved}); [nan] on the fixed
          path, which measures no interval *)
}

type adaptive = { confidence : float; ci_width : float }
(** Run-to-confidence knob for the matrix: stop each cell's campaign
    once its estimator's CI half-width at [confidence] reaches
    [ci_width] (subject to the Driver's min-trials floor), instead of
    always running the full budget. [ci_width = 0.] never stops early:
    the campaign runs to its cap on the adaptive batch plan — the
    measurement arm the e2e bench uses to find the widths that fixed
    budgets actually achieve. *)

val cell :
  ?adaptive:adaptive ->
  Run.ctx -> Cachesec_cache.Spec.t -> Cachesec_analysis.Attack_type.t -> cell
(** One cell, its trials sharded over the trial runtime under a
    telemetry span [validation:<arch>:<attack>]. The cell's value is
    independent of [ctx.jobs] — with or without [?adaptive] (stop
    decisions depend only on seed-determined merged estimates at
    deterministic round boundaries). *)

val submit_cell :
  ?adaptive:adaptive ->
  Run.ctx -> Cachesec_cache.Spec.t -> Cachesec_analysis.Attack_type.t ->
  cell Driver.pending
(** Non-blocking {!cell}: the attack campaign's shards are dispatched
    onto the pool immediately; the cell record is built (and its span
    closed) at [Driver.await]. *)

val cells :
  ?pipeline:bool ->
  ?policy:Cachesec_cache.Policy.t ->
  ?adaptive:adaptive ->
  Run.ctx ->
  cell list
(** All 9 x 4 combinations, under one [validation-matrix] span.
    [pipeline] (default [true]) submits every cell's campaign before the
    first await, letting shards from all cells share the pool queue;
    [false] runs the cells strictly sequentially. Both produce
    bit-identical cell lists — pipelining changes wall-clock only.
    [policy] rebinds every architecture's replacement policy via
    {!Cachesec_cache.Spec.with_policy} (Newcache keeps SecRAND).
    [adaptive] switches every cell to run-to-confidence stopping. *)

val render : cell list -> string
(** The matrix table. When at least one cell measured an interval the
    table gains [trials] and [ci] columns plus a trials-saved footer;
    fixed-path output is unchanged. *)

val agreement_rate : cell list -> float
(** Fraction of cells where prediction and simulation agree. *)

val total_trials : cell list -> int
(** Sum of trials actually executed across the cells. *)

val total_caps : cell list -> int
(** Sum of the cells' trial budgets. *)

val worst_half_width : cell list -> float
(** Largest measured finite [ci_half_width] ([nan] and [infinity]
    skipped — an infinite relative width marks a cell that can never
    stop early and runs to cap in both bench arms); [0.] when nothing
    finite was measured. The e2e bench's matched-width target: an
    adaptive arm run at this width is at least as precise as the fixed
    arm in every cell that can stop at all. *)
