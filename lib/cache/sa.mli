(** Conventional set-associative cache (the paper's baseline).

    Physically indexed and tagged: any process hits on any cached line with
    a matching address, which is what makes the conventional cache leak
    through all four attack types. With [ways = lines] this is the fully
    associative cache; the paper's baseline uses random replacement "since
    this gives better resilience against cache attackers" (Section 3.7).

    [access] is the generic, policy-dispatching path; peek, flush and
    counters are the {!Backing.engine} defaults on the {!engine}. *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** Defaults: {!Config.standard}, random replacement. *)

val config : t -> Config.t
val policy : t -> Policy.t
val access : t -> pid:int -> int -> Outcome.t

val engine : ?kernel:Kernel.selection -> t -> Engine.t
(** [?kernel] (default [Auto]) binds {!Kernel_sa}'s access kernel and its
    batched twin, which serve every policy; [Scalar] binds the scalar
    kernel under the scalar-looping run; [Generic] keeps the
    policy-dispatching fallback (differential-testing oracle). All are
    bit-identical in state, RNG draws and outcomes; [Engine.t.kernel]
    is ["sa-<policy>"] or ["generic"]. *)
