(** Immutable snapshot of one cache line's metadata, as {!Slab.line}
    materializes it for [Engine.t.dump]; the slabs are the state of
    record. *)

type t = {
  valid : bool;
  tag : int;  (** full memory-line number of the cached line *)
  owner : int;  (** pid that filled the line *)
  locked : bool;  (** PL cache protection bit *)
  last_use : int;  (** global access sequence of the last touch (LRU) *)
  fill_seq : int;  (** global access sequence of the fill (FIFO) *)
  aux : int;  (** architecture-specific field (Newcache logical index) *)
}
