(** Access kernels for the conventional set-associative cache: one
    scalar {!access} and one batched {!run}, each dispatching on the
    replacement policy inside the loop. Bit-identical to the generic
    [Sa.access] path (state writes, RNG draws, outcomes); selected by
    [Sa.engine] with [~kernel:Auto]. The hit path allocates nothing.

    The per-policy pieces ({!touch}, {!victim} and the post-fill hook
    inside {!fill_outcome}/{!finish_miss_fill}) are the one inlined
    copy of [Policy.touch]/[Policy.victim_in]/[Policy.filled], reused by
    {!Kernel_pl} and {!Kernel_rp}. Adding a policy means one more arm in
    each of those [match]es. *)

val tick : Backing.t -> int
(** Inlined [Backing.tick] (shared by the other kernels). *)

val set_of : Backing.t -> int -> int
(** Inlined [Backing.set_of] (shared by the other kernels). *)

val touch : Policy.t -> Slab.t -> int -> int -> unit
(** [touch policy s i seq]: [Policy.touch] on a hit at line [i]. *)

val victim : Policy.t -> Cachesec_stats.Rng.t -> Slab.t -> int -> int
(** [victim policy rng s set]: [Policy.victim_in] over every way of
    physical [set]. *)

val fill_outcome :
  Policy.t -> Slab.t -> int -> pid:int -> addr:int -> seq:int -> Outcome.t
(** Fill the way, run the post-fill hook and build the filled outcome. *)

val access : Policy.t -> Backing.t -> pid:int -> int -> Outcome.t

(** {2 Batched trace replay}

    [run] replays [len] packed addresses for one pid, bit-identical to
    the same accesses through {!access} (state writes, RNG draws,
    counters); [Fill]/[Count] modes never build an [Outcome.t]. *)

val finish_hit : Counters.cell -> Counters.cell -> Kernel.mode -> int -> unit
(** Shared hit epilogue: bump both cells, then accumulate per mode
    (Trace writes [Outcome.hit] at the given index). *)

val finish_miss_fill :
  Policy.t ->
  Slab.t ->
  int ->
  pid:int ->
  addr:int ->
  seq:int ->
  Counters.cell ->
  Counters.cell ->
  Kernel.mode ->
  int ->
  unit
(** Shared fill-miss epilogue at a chosen way: Trace replays the scalar
    {!fill_outcome} tail; Fill/Count fill without allocating and count
    the displaced valid line directly. *)

val run :
  Policy.t -> Backing.t -> pid:int -> trace:int array -> pos:int ->
  len:int -> Kernel.mode -> unit
