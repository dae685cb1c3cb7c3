(* The access kernels of the conventional set-associative cache: one
   scalar [access] and one batched [run] serving every replacement
   policy. Each is the [Sa.access] generic path flattened into one
   straight-line function — sequence tick and set index inlined, the tag
   probe and victim scans running directly over the slab arrays. The
   policy is a [match] inside the loop at the three points where the
   generic path calls [Policy]: hit [touch], miss [victim] and the
   post-fill hook (folded into the fill tails below). Those pieces are
   shared with [Kernel_pl] and [Kernel_rp], which add only their own
   probe and miss tails.

   Bit-identity contract: state writes, RNG draw order and outcome
   construction exactly match the generic path — [test_kernels] replays
   random workloads against both. The hit path allocates nothing. *)

open Cachesec_stats

let[@inline] tick (b : Backing.t) =
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  seq

let[@inline] set_of (b : Backing.t) addr =
  if b.Backing.set_mask >= 0 then addr land b.Backing.set_mask
  else addr mod b.Backing.sets

(* [Policy.touch]: the [last_use] store every policy makes, plus the
   LFU/MFU frequency bump or the PLRU tree re-point. *)
let[@inline] touch (policy : Policy.t) (s : Slab.t) i seq =
  Array.unsafe_set s.Slab.last_use i seq;
  match policy with
  | Policy.Lfu | Policy.Mfu ->
    Array.unsafe_set s.Slab.freq i (Array.unsafe_get s.Slab.freq i + 1)
  | Policy.Plru -> Policy.plru_touch s i
  | Policy.Lru | Policy.Random | Policy.Fifo | Policy.Mru -> ()

let[@inline] argmin a base stop =
  Slab.scan_min a (base + 1) stop base (Array.unsafe_get a base)

let[@inline] argmax a base stop =
  Slab.scan_max a (base + 1) stop base (Array.unsafe_get a base)

(* [Policy.victim_in] over all ways of physical [set]: the first invalid
   way, else the policy's scan (first occurrence wins ties). PLRU on a
   non-power-of-two way count falls back to LRU order, as there. *)
let[@inline] victim (policy : Policy.t) rng (s : Slab.t) set =
  let ways = s.Slab.ways in
  let base = set * ways in
  let stop = base + ways in
  let inv = Slab.scan_invalid s.Slab.tags base stop in
  if inv >= 0 then inv
  else
    match policy with
    | Policy.Lru -> argmin s.Slab.last_use base stop
    | Policy.Random -> base + Rng.int rng ways
    | Policy.Fifo -> argmin s.Slab.fill_seq base stop
    | Policy.Mru -> argmax s.Slab.last_use base stop
    | Policy.Lfu -> argmin s.Slab.freq base stop
    | Policy.Mfu -> argmax s.Slab.freq base stop
    | Policy.Plru ->
      if Policy.plru_tree_capable ways then
        base + Policy.plru_walk (Array.unsafe_get s.Slab.tree set) ways 1
      else argmin s.Slab.last_use base stop

(* [Policy.filled]: a fill counts as a use for the PLRU tree only. *)
let[@inline] filled (policy : Policy.t) s way =
  match policy with Policy.Plru -> Policy.plru_touch s way | _ -> ()

(* Fill [way] with [addr] and build the filled outcome (the generic miss
   tail). *)
let[@inline] fill_outcome policy (s : Slab.t) way ~pid ~addr ~seq =
  let evicted = Slab.victim s way in
  Slab.fill s way ~tag:addr ~owner:pid ~seq;
  filled policy s way;
  Outcome.fill ~fetched:addr ~evicted

let access policy (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let seq = tick b in
  let set = set_of b addr in
  let base = set * s.Slab.ways in
  let i = Slab.scan_tag s.Slab.tags addr base (base + s.Slab.ways) in
  let outcome =
    if i >= 0 then begin
      touch policy s i seq;
      Outcome.hit
    end
    else
      fill_outcome policy s (victim policy b.Backing.rng s set) ~pid ~addr ~seq
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

(* --- batched run kernels ---------------------------------------------- *)

(* The scalar body over a packed address run with the per-access costs
   hoisted: the counters cells resolved once per run (the pid is
   constant across a trace), the sequence counter kept in a local and
   written back once, and the [Outcome.t] materialized only in [Trace]
   mode ([Fill]/[Count] bump the cells field-wise and never call
   [Slab.victim], so the miss path stops allocating). *)

(* Hit epilogue shared by every batched kernel: counters plus per-mode
   accumulation. [k] indexes the Trace writeback slot. *)
let finish_hit g p (mode : Kernel.mode) k =
  Counters.cell_hit g;
  Counters.cell_hit p;
  match mode with
  | Kernel.Fill -> ()
  | Kernel.Count c -> Kernel.count_hit c
  | Kernel.Trace out -> Array.unsafe_set out k Outcome.hit

(* Fill-miss epilogue (the [fill_outcome] tail): Trace builds the exact
   scalar outcome; Fill/Count test way validity directly instead of
   allocating [Slab.victim]'s [(pid, tag) option]. *)
let finish_miss_fill policy (s : Slab.t) way ~pid ~addr ~seq g p
    (mode : Kernel.mode) k =
  match mode with
  | Kernel.Trace out ->
    let o = fill_outcome policy s way ~pid ~addr ~seq in
    Counters.cell_record g o;
    Counters.cell_record p o;
    Array.unsafe_set out k o
  | Kernel.Fill | Kernel.Count _ ->
    let evictions = if Array.unsafe_get s.Slab.tags way >= 0 then 1 else 0 in
    Slab.fill s way ~tag:addr ~owner:pid ~seq;
    filled policy s way;
    Counters.cell_miss_cached g ~evictions;
    Counters.cell_miss_cached p ~evictions;
    (match mode with Kernel.Count c -> Kernel.count_miss c | _ -> ())

let run policy (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let set = set_of b addr in
    let base = set * ways in
    let i = Slab.scan_tag tags addr base (base + ways) in
    if i >= 0 then begin
      touch policy s i seq;
      finish_hit g p mode k
    end
    else
      let way = victim policy b.Backing.rng s set in
      finish_miss_fill policy s way ~pid ~addr ~seq g p mode k
  done;
  b.Backing.seq <- seq0 + len
