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
(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

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
  let set = set_of t addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let base =
    if i >= 0 then begin
      Policy.touch t.policy b.Backing.slab i ~seq;
      Outcome.hit
    end
    else begin
      let s = b.Backing.slab in
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
      in
      let evicted = Slab.victim s way in
      Slab.fill s way ~tag:addr ~owner:pid ~seq;
      Policy.filled t.policy s way;
      Outcome.fill ~fetched:addr ~evicted
    end
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

let peek t ~pid:_ addr = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr >= 0

let flush_line t ~pid addr =
  let i = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr in
  if i >= 0 then begin
    Slab.invalidate t.b.Backing.slab i;
    Counters.record_flush t.b.Backing.counters ~pid;
    true
  end
  else false

let flush_all t = Backing.flush_all t.b

let engine t =
  {
    Engine.name =
      Printf.sprintf "re-%d-way-T%d" (config t).Config.ways t.interval;
    config = config t;
    sigma = 0.;
    kernel = Kernel.generic;
    slab_bytes = Slab.bytes t.b.Backing.slab;
    access = (fun ~pid addr -> access t ~pid addr);
    access_run = Kernel.run_of_scalar (fun ~pid addr -> access t ~pid addr);
    run_kernel = Kernel.generic;
    peek = (fun ~pid addr -> peek t ~pid addr);
    flush_line = (fun ~pid addr -> flush_line t ~pid addr);
    flush_all = (fun () -> flush_all t);
    lock_line = Engine.no_lock;
    unlock_line = Engine.no_lock;
    set_window = Engine.no_window;
    counters = (fun () -> Counters.global t.b.Backing.counters);
    counters_for = (fun pid -> Counters.for_pid t.b.Backing.counters pid);
    reset_counters = (fun () -> Counters.reset t.b.Backing.counters);
    dump = (fun () -> Backing.dump t.b);
  }
