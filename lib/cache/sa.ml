type t = { b : Backing.t; policy : Policy.t }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy }

let config t = t.b.Backing.cfg
let policy t = t.policy

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
  let set = Backing.set_of b addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Outcome.hit
    end
    else
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
      in
      Backing.install b t.policy way ~addr ~pid ~seq
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine ?kernel t =
  let policy = Policy.to_string t.policy in
  Backing.engine ?kernel t.b
    ~kernels:
      ("sa-" ^ policy, Kernel_sa.access t.policy t.b, Kernel_sa.run t.policy t.b)
    ~name:(Printf.sprintf "sa-%d-way-%s" (config t).Config.ways policy)
    (access t)
