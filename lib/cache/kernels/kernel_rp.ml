(* RP cache: shared mapping state + the access kernels for every
   replacement policy.

   The per-pid permutation tables live here (not in [Rp]) because both
   the generic [Rp.access] path and the kernels below read and mutate
   them — in particular the single-entry (pid -> table) memo: if each
   path kept its own memo, [Rp.set_identity] could invalidate one and
   leave the other serving a stale table. [Rp.t] embeds a [map] and
   delegates.

   The kernels are the [Kernel_sa] loops with RP's own probe (through
   the accessor's permutation table, owner must match) and miss tail.
   Bit-identity contract with [Rp.access]: same probe, same victim
   choice, same internal/external split, same RNG draw order (victim
   draw, then set draw + way draw on external misses). *)

open Cachesec_stats

type map = {
  tables : (int, int array) Hashtbl.t;
  (* Last (pid, table) pair served by [table_of]: attack loops access in
     long same-pid runs (a 512-line prime, a 160-lookup encryption), so
     the memo turns the per-access table lookup into one int compare.
     Invalidated by [set_identity]. *)
  mutable memo_pid : int;
  mutable memo_tbl : int array;
}

let create_map () =
  { tables = Hashtbl.create 8; memo_pid = min_int; memo_tbl = [||] }

(* [Hashtbl.find] + preallocated [Not_found] rather than [find_opt]:
   this runs once per access and the option wrapper would put a
   minor-heap allocation on the hit path. *)
let table_of m ~sets pid =
  if pid = m.memo_pid then m.memo_tbl
  else begin
    let tbl =
      match Hashtbl.find m.tables pid with
      | tbl -> tbl
      | exception Not_found ->
        let tbl = Array.init sets Fun.id in
        Hashtbl.replace m.tables pid tbl;
        tbl
    in
    m.memo_pid <- pid;
    m.memo_tbl <- tbl;
    tbl
  end

let set_identity m ~sets ~pid =
  Hashtbl.replace m.tables pid (Array.init sets Fun.id);
  m.memo_pid <- min_int

(* Top-level downward scan (all state as arguments): the table is a
   bijection, so first-from-the-end = last-from-the-start, without
   allocating an iteri closure per external miss. *)
let rec last_mapped (tbl : int array) target i =
  if i < 0 then -1
  else if tbl.(i) = target then i
  else last_mapped tbl target (i - 1)

let swap_mapping m ~sets pid ~logical ~target_set =
  let tbl = table_of m ~sets pid in
  (* Find the logical index currently mapped to [target_set] and exchange
     it with [logical] so the table stays a bijection. *)
  let other =
    match last_mapped tbl target_set (Array.length tbl - 1) with
    | -1 -> logical
    | i -> i
  in
  let tmp = tbl.(logical) in
  tbl.(logical) <- tbl.(other);
  tbl.(other) <- tmp

(* The way an RP miss fills. Internal miss (the victim is invalid or the
   accessor's own line): the victim itself. External miss: a random line
   of a random set S' (set drawn first, then way), after swapping the
   accessor's mappings of its logical set and S' — the swap touches only
   the table, so it may precede the fill. *)
let fill_way m (b : Backing.t) (s : Slab.t) way ~pid ~logical =
  if Array.unsafe_get s.Slab.tags way < 0
     || Array.unsafe_get s.Slab.owners way = pid
  then way
  else begin
    let s' = Rng.int b.Backing.rng b.Backing.sets in
    let way' = (s' * s.Slab.ways) + Rng.int b.Backing.rng s.Slab.ways in
    swap_mapping m ~sets:b.Backing.sets pid ~logical ~target_set:s';
    way'
  end

let access m policy (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let seq = Kernel_sa.tick b in
  let logical = Kernel_sa.set_of b addr in
  let set = (table_of m ~sets:b.Backing.sets pid).(logical) in
  let base = set * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag_owned s.Slab.tags s.Slab.owners addr pid base stop in
  let outcome =
    if i >= 0 then begin
      Kernel_sa.touch policy s i seq;
      Outcome.hit
    end
    else
      let way = Kernel_sa.victim policy b.Backing.rng s set in
      let way = fill_way m b s way ~pid ~logical in
      Kernel_sa.fill_outcome policy s way ~pid ~addr ~seq
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

(* The permutation table is hoisted once per run: [swap_mapping] mutates
   it in place (never replaces it) and [set_identity] cannot run
   mid-replay, so the per-access [table_of] memo probe collapses to an
   array read. *)
let run m policy (b : Backing.t) ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let tbl = table_of m ~sets:b.Backing.sets pid in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  let seq0 = b.Backing.seq in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = seq0 + k + 1 in
    let logical = Kernel_sa.set_of b addr in
    let set = Array.unsafe_get tbl logical in
    let base = set * ways in
    let i = Slab.scan_tag_owned tags s.Slab.owners addr pid base (base + ways) in
    if i >= 0 then begin
      Kernel_sa.touch policy s i seq;
      Kernel_sa.finish_hit g p mode k
    end
    else
      let way = Kernel_sa.victim policy b.Backing.rng s set in
      let way = fill_way m b s way ~pid ~logical in
      Kernel_sa.finish_miss_fill policy s way ~pid ~addr ~seq g p mode k
  done;
  b.Backing.seq <- seq0 + len
