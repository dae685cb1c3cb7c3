open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Policy.t;
  default_window : int * int;
  windows : (int, int * int) Hashtbl.t;
}

let create ?(config = Config.standard) ?(policy = Policy.Random)
    ?(default_window = (0, 0)) ~rng () =
  let back, fwd = default_window in
  if back < 0 || fwd < 0 then invalid_arg "Rf.create: negative window";
  { b = Backing.create config ~rng; policy; default_window; windows = Hashtbl.create 8 }

let config t = t.b.Backing.cfg

(* [Hashtbl.find] + [Not_found] rather than [find_opt]: runs on every
   miss, and the option wrapper would allocate. *)
let window t ~pid =
  match Hashtbl.find t.windows pid with
  | w -> w
  | exception Not_found -> t.default_window

let set_window t ~pid ~back ~fwd =
  if back < 0 || fwd < 0 then invalid_arg "Rf.set_window: negative window";
  Hashtbl.replace t.windows pid (back, fwd)

(* Install [line] unless already cached; the filled outcome for an
   access to [addr] that randomly fetched [line]. *)
let fill_line t ~pid ~addr line ~seq =
  let b = t.b in
  let s = b.Backing.slab in
  let set = Backing.set_of b line in
  if Backing.find_tag b ~set ~tag:line >= 0 then
    (* already cached; nothing fetched, nothing displaced *)
    Outcome.miss_uncached
  else begin
    let way =
      Policy.victim_in t.policy b.rng s
        ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
    in
    let evicted = Slab.victim s way in
    Slab.fill s way ~tag:line ~owner:pid ~seq;
    Policy.filled t.policy s way;
    {
      Outcome.event = Miss;
      cached = line = addr;
      fetched = Some line;
      evicted;
      also_evicted = None;
    }
  end

let access t ~pid addr =
  let b = t.b in
  let seq = Backing.tick b in
  let set = Backing.set_of b addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy b.Backing.slab i ~seq;
      Outcome.hit
    end
    else begin
      let back, fwd = window t ~pid in
      (* Uniform over the window [addr - back, addr + fwd], clamped to
         non-negative lines. A zero window is exactly demand fetch and
         draws no randomness (so RF(0,0) replays an SA cache's RNG
         stream bit-for-bit). *)
      let lo = Stdlib.max 0 (addr - back) and hi = addr + fwd in
      let target = if lo = hi then lo else lo + Rng.int b.rng (hi - lo + 1) in
      fill_line t ~pid ~addr target ~seq
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine t =
  {
    (Backing.engine t.b
       ~name:(Printf.sprintf "rf-%d-way" (config t).Config.ways)
       (fun ~pid addr -> access t ~pid addr))
    with
    Engine.set_window = (fun ~pid ~back ~fwd -> set_window t ~pid ~back ~fwd);
  }
