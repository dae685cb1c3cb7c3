open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Policy.t;
  interval : int;
  mutable since_eviction : int;
  mutable random_evictions : int;
}

let create ?(config = Config.direct_mapped) ?(policy = Policy.Random)
    ?(interval = 10) ~rng () =
  if interval <= 0 then invalid_arg "Re.create: interval must be positive";
  {
    b = Backing.create config ~rng;
    policy;
    interval;
    since_eviction = 0;
    random_evictions = 0;
  }

let config t = t.b.Backing.cfg
let interval t = t.interval
let random_evictions t = t.random_evictions

(* Fires after every [interval]-th access; evicts a uniformly random slot. *)
let periodic_eviction t =
  t.since_eviction <- t.since_eviction + 1;
  if t.since_eviction >= t.interval then begin
    t.since_eviction <- 0;
    t.random_evictions <- t.random_evictions + 1;
    let s = t.b.Backing.slab in
    let slot = Rng.int t.b.Backing.rng s.Slab.n in
    let victim = Slab.victim s slot in
    if Slab.valid s slot then Slab.invalidate s slot;
    victim
  end
  else None

let access t ~pid addr =
  let b = t.b in
  let seq = Backing.tick b in
  let set = Backing.set_of b addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let base =
    if i >= 0 then begin
      Policy.touch t.policy b.Backing.slab i ~seq;
      Outcome.hit
    end
    else
      let way =
        Policy.victim_in t.policy b.rng b.Backing.slab
          ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
      in
      Backing.install b t.policy way ~addr ~pid ~seq
  in
  let outcome =
    (* The off-beat (interval - 1 of interval) accesses pass [base]
       through untouched, so plain RE hits stay allocation-free. *)
    match periodic_eviction t with
    | None -> base
    | Some _ as v -> { base with Outcome.also_evicted = v }
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine t =
  Backing.engine t.b
    ~name:(Printf.sprintf "re-%d-way-T%d" (config t).Config.ways t.interval)
    (fun ~pid addr -> access t ~pid addr)
