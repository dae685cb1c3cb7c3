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
   everyone else fills into the shared slice. Both slices are non-empty
   when chosen: [reserved < ways] is checked at create, and only
   [reserved > 0] lets a pid own fewer than [reserved] lines. *)
let fills_reserved t ~base ~pid =
  is_protected t pid
  && owned_in_range t ~base ~len:t.b.Backing.cfg.Config.ways ~pid < t.reserved

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
      (* The reserved/shared slices are never a whole set, so under
         Plru the victim choice is the deterministic LRU fallback
         (tree bits are maintained by the hooks but never consulted
         for slice-shaped ranges — see {!Policy}). *)
      let base = Backing.base_of_set b ~set in
      let r = t.reserved in
      let way =
        if fills_reserved t ~base ~pid then
          Policy.victim_in t.policy b.rng s ~base ~len:r
        else
          Policy.victim_in t.policy b.rng s ~base:(base + r)
            ~len:(b.cfg.Config.ways - r)
      in
      Backing.install b t.policy way ~addr ~pid ~seq
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine t =
  Backing.engine t.b
    ~name:
      (Printf.sprintf "nomo-%d/%d-reserved" t.reserved (config t).Config.ways)
    (fun ~pid addr -> access t ~pid addr)
