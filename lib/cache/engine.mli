(** Uniform, architecture-agnostic cache interface.

    The attack harness, benches and examples drive caches only through
    this record of operations. Every slab-backed architecture builds it
    with {!Backing.engine} and overrides what differs; {!Hierarchy}
    wraps other engines. Operations that an architecture does not
    implement (locking outside PL, windows outside RF) are no-ops that
    return [()] or [false]. *)

type t = {
  name : string;
  config : Config.t;
  sigma : float;
      (** standard deviation of Gaussian observation noise this cache adds
          to timing measurements (non-zero only for the noisy cache) *)
  kernel : string;
      (** which access path serves this engine: a kernel
          name (["sa-lru"], ["newcache"], ...) or ["generic"] for the
          policy-dispatching fallback. Reported as the [cache.kernel]
          telemetry gauge and in bench rows. *)
  slab_bytes : int;
      (** resident footprint of the engine's flat line-state slabs in
          bytes (0 for wrappers without slabs of their own). *)
  access : pid:int -> int -> Outcome.t;
      (** one read of a memory line (line-number addressing) *)
  access_run :
    pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit;
      (** batched replay of [trace.(pos) .. trace.(pos + len - 1)] for one
          pid, accumulating per {!Kernel.mode}. Bit-identical to [len]
          calls of [access] in state, RNG draws and counters; [Fill] and
          [Count] modes never build an [Outcome.t]. *)
  run_kernel : string;
      (** which path serves [access_run]: a kernel name,
          ["generic"] (scalar [access] looped — wrappers and
          engines without a kernel), or ["scalar"] (the [Kernel.Scalar]
          selection: the kernel's scalar access under the generic loop —
          the pre-batching cost model benched as the "scalar" rows). *)
  peek : pid:int -> int -> bool;
      (** non-mutating: would [access] hit right now? *)
  flush_line : pid:int -> int -> bool;
      (** clflush analogue: remove the line wherever the pid could hit on
          it; returns whether anything was removed *)
  flush_all : unit -> unit;  (** invalidate the whole cache *)
  lock_line : pid:int -> int -> bool;
      (** PL cache: prefetch and protect a line; [false] if unsupported or
          the line could not be locked *)
  unlock_line : pid:int -> int -> bool;
  set_window : pid:int -> back:int -> fwd:int -> unit;
      (** RF cache: set the pid's random-fill window; no-op elsewhere *)
  counters : unit -> Counters.snapshot;
  counters_for : int -> Counters.snapshot;
  reset_counters : unit -> unit;
  dump : unit -> (int * Line.t) list;
      (** valid lines with their physical way index, for tests/debugging *)
}
