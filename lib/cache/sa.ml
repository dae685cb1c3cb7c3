type t = { b : Backing.t; policy : Policy.t }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy }

let config t = t.b.Backing.cfg
let policy t = t.policy
(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

(* Generic access path: policy dispatched per access through the
   {!Policy} registry (victim selection on miss, touch hook on hit,
   filled hook after install). [Kernel_sa] holds the flattened
   equivalent selected by {!engine}; the two must stay
   bit-identical (state, RNG draws, outcomes — replayed against each
   other by the differential kernel tests). The hit path allocates
   nothing: tag probe and policy touch are int loops/stores over the
   slab and the outcome is the preallocated [Outcome.hit]. *)
let access t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = Backing.tick b in
  let set = set_of t addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Outcome.hit
    end
    else begin
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
let counters t = t.b.Backing.counters

let engine ?(kernel = Kernel.Auto) t =
  let access, run, kernel_name, run_name =
    Kernel.select kernel
      ~name:("sa-" ^ Policy.to_string t.policy)
      ~fallback:(access t)
      ~access:(Kernel_sa.access t.policy t.b)
      ~run:(Kernel_sa.run t.policy t.b)
  in
  {
    Engine.name = Printf.sprintf "sa-%d-way-%s" (config t).Config.ways
        (Policy.to_string t.policy);
    config = config t;
    sigma = 0.;
    kernel = kernel_name;
    slab_bytes = Slab.bytes t.b.Backing.slab;
    access;
    access_run = run;
    run_kernel = run_name;
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
