(* The PL cache's access kernels: the [Kernel_sa] loops with one extra
   check on the miss path — a locked victim is served read-through
   instead of displaced (paper Section 2.2.1). Locked implies valid
   ([Slab.fill] and [Slab.invalidate] both clear the bit), and a
   read-through changes no cache state, so it runs no post-fill hook.
   Locking itself stays in [Pl] (cold path). Bit-identical to the
   generic [Pl.access]. *)

let access policy (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let seq = Kernel_sa.tick b in
  let set = Kernel_sa.set_of b addr in
  let base = set * s.Slab.ways in
  let i = Slab.scan_tag s.Slab.tags addr base (base + s.Slab.ways) in
  let outcome =
    if i >= 0 then begin
      Kernel_sa.touch policy s i seq;
      Outcome.hit
    end
    else
      let way = Kernel_sa.victim policy b.Backing.rng s set in
      if Array.unsafe_get s.Slab.locked way = 1 then Outcome.miss_uncached
      else Kernel_sa.fill_outcome policy s way ~pid ~addr ~seq
  in
  Counters.record b.Backing.counters ~pid outcome;
  outcome

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
    let set = Kernel_sa.set_of b addr in
    let base = set * ways in
    let i = Slab.scan_tag tags addr base (base + ways) in
    if i >= 0 then begin
      Kernel_sa.touch policy s i seq;
      Kernel_sa.finish_hit g p mode k
    end
    else
      let way = Kernel_sa.victim policy b.Backing.rng s set in
      if Array.unsafe_get s.Slab.locked way = 1 then begin
        Counters.cell_miss_uncached g;
        Counters.cell_miss_uncached p;
        match mode with
        | Kernel.Fill -> ()
        | Kernel.Count c -> Kernel.count_miss c
        | Kernel.Trace out -> Array.unsafe_set out k Outcome.miss_uncached
      end
      else Kernel_sa.finish_miss_fill policy s way ~pid ~addr ~seq g p mode k
  done;
  b.Backing.seq <- seq0 + len
