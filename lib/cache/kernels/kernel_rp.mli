(** RP cache mapping state + the access kernels for every policy.

    The per-pid permutation tables (with their one-entry memo) are owned
    here so the generic [Rp.access] path and the kernels below share one
    record — a private memo in either path could go stale across
    [set_identity]. Bit-identical to the generic path; selected by
    [Rp.engine] with [~kernel:Auto]. *)

type map = {
  tables : (int, int array) Hashtbl.t;
  mutable memo_pid : int;
  mutable memo_tbl : int array;
}

val create_map : unit -> map

val table_of : map -> sets:int -> int -> int array
(** The pid's permutation table, created as the identity on first use.
    The returned array is the live table (not a copy). *)

val set_identity : map -> sets:int -> pid:int -> unit
(** Reset the pid's table to the identity and drop the memo. *)

val swap_mapping : map -> sets:int -> int -> logical:int -> target_set:int -> unit
(** Exchange the pid's mappings of [logical] and (the logical index
    currently mapped to) [target_set], keeping the table a bijection. *)

val access : map -> Policy.t -> Backing.t -> pid:int -> int -> Outcome.t

val run :
  map -> Policy.t -> Backing.t -> pid:int -> trace:int array -> pos:int ->
  len:int -> Kernel.mode -> unit
(** Batched trace replay — see {!Kernel_sa}. External misses draw set
    then way in the scalar order; the permutation table is hoisted once
    per run (mutated in place, never replaced mid-replay). *)
