type t = { b : Backing.t; policy : Policy.t }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy }

let config t = t.b.Backing.cfg

(* Generic access path; [Kernel_pl] holds the flattened
   equivalent (bit-identical, see the differential kernel tests). *)
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
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
      in
      if Slab.valid s way && Slab.locked s way then
        (* Protected victim: direct memory-to-processor transfer (no
           fill, so no [Policy.filled] either — the tree/counters only
           move when cache state does). *)
        Outcome.miss_uncached
      else Backing.install b t.policy way ~addr ~pid ~seq
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

(* Cold path: locking may need the victim choice restricted to the
   unlocked (non-contiguous) ways, so it keeps the list form. *)
let lock_line t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let set = Backing.set_of b addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  if i >= 0 then begin
    Slab.set_locked s i true;
    s.Slab.owners.(i) <- pid;
    true
  end
  else begin
    let seq = Backing.tick b in
    let unlocked =
      List.filter (fun i -> not (Slab.locked s i)) (Backing.ways_of_set b ~set)
    in
    match unlocked with
    | [] -> false
    | candidates ->
      let way = Policy.victim_among_in t.policy b.rng s ~candidates in
      let evicted = if Slab.valid s way then 1 else 0 in
      Slab.fill s way ~tag:addr ~owner:pid ~seq;
      Policy.filled t.policy s way;
      Slab.set_locked s way true;
      Counters.record_eviction b.counters ~count:evicted;
      true
  end

let unlock_line t ~pid addr =
  let s = t.b.Backing.slab in
  let i = Backing.find_tag t.b ~set:(Backing.set_of t.b addr) ~tag:addr in
  if i >= 0 && Slab.locked s i && s.Slab.owners.(i) = pid then begin
    Slab.set_locked s i false;
    true
  end
  else false

let locked_lines t =
  Backing.dump t.b
  |> List.filter_map (fun (_, (l : Line.t)) -> if l.locked then Some l.tag else None)
  |> List.sort Int.compare

(* Flush refuses to remove a line locked by a different pid. *)
let flush_line t ~pid addr =
  let s = t.b.Backing.slab in
  let i = Backing.find_tag t.b ~set:(Backing.set_of t.b addr) ~tag:addr in
  if i >= 0 && Slab.locked s i && s.Slab.owners.(i) <> pid then false
  else Backing.flush_at t.b ~pid i

let engine ?kernel t =
  let e =
    Backing.engine ?kernel t.b
      ~kernels:
        ( "pl-" ^ Policy.to_string t.policy,
          Kernel_pl.access t.policy t.b,
          Kernel_pl.run t.policy t.b )
      ~name:(Printf.sprintf "pl-%d-way" (config t).Config.ways)
      (access t)
  in
  {
    e with
    Engine.flush_line = (fun ~pid addr -> flush_line t ~pid addr);
    lock_line = (fun ~pid addr -> lock_line t ~pid addr);
    unlock_line = (fun ~pid addr -> unlock_line t ~pid addr);
  }
