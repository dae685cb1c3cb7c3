type t = {
  b : Backing.t;
  policy : Policy.t;
  reserved : int;
  protected_pids : int list;
}

let create ?(config = Config.standard) ?(policy = Policy.Random) ?reserved
    ~protected_pids ~rng () =
  let reserved = Option.value reserved ~default:(config.Config.ways / 4) in
  if reserved < 0 || reserved >= config.Config.ways then
    invalid_arg "Nomo.create: reserved must lie in [0, ways)";
  { b = Backing.create config ~rng; policy; reserved; protected_pids }

let config t = t.b.Backing.cfg
let reserved_ways t = t.reserved
let shared_ways t = t.b.Backing.cfg.Config.ways - t.reserved
let is_protected t pid = List.mem pid t.protected_pids

(* Top-level loop (all state as arguments): a local [let rec] capturing
   the slabs/[stop]/[pid] would allocate its closure on every miss under
   the non-flambda compiler. Valid lines have non-negative tags. *)
let rec count_owned (tags : int array) (owners : int array) pid i stop n =
  if i >= stop then n
  else
    count_owned tags owners pid (i + 1) stop
      (if tags.(i) >= 0 && owners.(i) = pid then n + 1 else n)

(* Valid lines in [base, base + len) filled by [pid]. Allocation-free. *)
let owned_in_range t ~base ~len ~pid =
  let s = t.b.Backing.slab in
  count_owned s.Slab.tags s.Slab.owners pid base (base + len) 0

(* The set's ways split into two contiguous slices: the first [reserved]
   ways and the shared remainder. A protected pid that holds fewer than
   [reserved] lines in the whole set fills into the reserved slice;
   everyone else fills into the shared slice. Returns (base, len). *)
let fill_range t ~set ~pid =
  let base = Backing.base_of_set t.b ~set in
  let w = t.b.Backing.cfg.Config.ways in
  if not (is_protected t pid) then (base + t.reserved, w - t.reserved)
  else if owned_in_range t ~base ~len:w ~pid < t.reserved then
    (base, t.reserved)
  else (base + t.reserved, w - t.reserved)

let access t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = Backing.tick b in
  let set = Backing.set_of b addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Outcome.hit
    end
    else begin
      let cand_base, cand_len = fill_range t ~set ~pid in
      if cand_len <= 0 then
        (* reserved = 0 for a protected pid never happens (owned < 0 is
           impossible); an empty shared slice can only occur if
           reserved = ways, excluded at create. Still: serve
           read-through defensively. *)
        Outcome.miss_uncached
      else begin
        (* The reserved/shared slices are never a whole set, so under
           Plru the victim choice is the deterministic LRU fallback
           (tree bits are maintained by the hooks but never consulted
           for slice-shaped ranges — see {!Policy}). *)
        let way =
          Policy.victim_in t.policy b.rng s ~base:cand_base ~len:cand_len
        in
        Backing.install b t.policy way ~addr ~pid ~seq
      end
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine t =
  Backing.engine t.b
    ~name:
      (Printf.sprintf "nomo-%d/%d-reserved" t.reserved (config t).Config.ways)
    (fun ~pid addr -> access t ~pid addr)
