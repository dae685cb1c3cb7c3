(** Access kernels for the PL cache, serving every replacement policy.
    Bit-identical to the generic [Pl.access] path; selected by
    [Pl.engine] with [~kernel:Auto]. Locking stays in [Pl]. *)

val access : Policy.t -> Backing.t -> pid:int -> int -> Outcome.t

val run :
  Policy.t -> Backing.t -> pid:int -> trace:int array -> pos:int ->
  len:int -> Kernel.mode -> unit
(** Batched trace replay — see {!Kernel_sa}. The miss tail adds the PL
    read-through check in front of the shared fill epilogue. *)
