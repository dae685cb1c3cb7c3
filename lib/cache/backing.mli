(** Shared physical storage for the slab-backed architecture models:
    flat {!Slab} field arrays viewed as [sets] groups of [ways], a
    global access sequence counter, per-cache counters and an RNG —
    and the one constructor, {!engine}, that projects it to the uniform
    {!Engine.t}.

    The per-access probes ({!find_tag}, {!find_tag_owned}) are
    allocation-free bounded scans over the slabs; list-producing helpers
    ({!ways_of_set}, {!dump}) are for cold paths. *)

type t = {
  cfg : Config.t;
  slab : Slab.t;  (** the line state of record (struct-of-arrays) *)
  mutable seq : int;
  counters : Counters.t;
  rng : Cachesec_stats.Rng.t;
  sets : int;  (** [Config.sets cfg], precomputed off the access path *)
  set_mask : int;
      (** [sets - 1] when [sets] is a power of two, else -1 (see
          {!set_of}) *)
}

val create : Config.t -> rng:Cachesec_stats.Rng.t -> t

val tick : t -> int
(** Advance and return the access sequence number. *)

val base_of_set : t -> set:int -> int
(** Global index of [set]'s first way; the set occupies the contiguous
    range [base, base + ways). *)

val set_of : t -> int -> int
(** Conventional set index of a (non-negative) line number: equal to
    [Address.set_index cfg line], but division-free when the set count
    is a power of two. Per-access hot path. *)

val find_tag : t -> set:int -> tag:int -> int
(** Global index of the valid line in [set] holding [tag], or -1.
    Allocation-free. *)

val find_tag_owned : t -> set:int -> tag:int -> owner:int -> int
(** As {!find_tag}, additionally requiring [owner] to have filled the
    line (RP's PID feature). Allocation-free. *)

val install :
  t -> Policy.t -> int -> addr:int -> pid:int -> seq:int -> Outcome.t
(** [install t policy way ~addr ~pid ~seq] is the generic miss tail:
    fill [way] (the victim [policy] picked) with [addr] for [pid], run
    {!Policy.filled} and return [Outcome.fill] carrying the displaced
    line. *)

val ways_of_set : t -> set:int -> int list
(** Global line indices of a set, in way order (cold paths only, e.g.
    PL way-locking). *)

val dump : t -> (int * Line.t) list
(** Valid lines with their global index, materialized as fresh
    snapshots of the slab state. *)

val flush_all : t -> unit
(** Invalidate every line, counting the displaced valid ones, in one
    pass per slab. *)

val flush_at : t -> pid:int -> int -> bool
(** [flush_at t ~pid i] invalidates line [i] and counts a flush for
    [pid] when [i >= 0] (a probe hit); [false] otherwise. *)

(** {2 Engine projection} *)

val engine :
  ?kernel:Kernel.selection ->
  ?kernels:
    string
    * (pid:int -> int -> Outcome.t)
    * (pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit) ->
  ?set_of:(int -> int) ->
  t ->
  name:string ->
  (pid:int -> int -> Outcome.t) ->
  Engine.t
(** [engine t ~name access] is the uniform engine over [t]. A new
    architecture supplies its name and its generic [access]; the
    constructor fills the rest: [config], [sigma = 0.], [slab_bytes],
    the counter views and [dump] over [t], {!flush_all}, no-op
    lock/unlock/window, and [peek]/[flush_line] as the tagged lookup in
    set [set_of addr] (default: {!set_of} [t]). Architectures override
    whatever differs with a record update.

    Without [kernels] the engine is generic: [access] looped by
    {!Kernel.run_of_scalar}, both labelled {!Kernel.generic}, and
    [kernel] is ignored. With [kernels = (label, k_access, k_run)],
    {!Kernel.select} [kernel] (default [Auto]) chooses between the
    kernel twins and the [access] fallback. *)
