open Cachesec_stats

type t = {
  cfg : Config.t;
  slab : Slab.t;
  mutable seq : int;
  counters : Counters.t;
  rng : Rng.t;
  sets : int;  (** [Config.sets cfg], precomputed off the access path *)
  set_mask : int;
      (** [sets - 1] when [sets] is a power of two, else -1: lets
          {!set_of} replace the per-access division with a masked AND *)
}

let create cfg ~rng =
  let sets = Config.sets cfg in
  {
    cfg;
    slab = Slab.create ~lines:cfg.Config.lines ~ways:cfg.Config.ways;
    seq = 0;
    counters = Counters.create ();
    rng;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
  }

let tick t =
  t.seq <- t.seq + 1;
  t.seq

(* --- hot path: bounded int scans over the flat slabs ---------------- *)

let base_of_set t ~set = set * t.cfg.Config.ways

(* Conventional set index of a line. Same value as [Address.set_index
   t.cfg line] but with the two per-access integer divisions (sets =
   lines/ways, then mod) replaced by one predictable branch and an AND
   whenever the set count is a power of two — which it is for every
   paper geometry. Line numbers are non-negative, so [land] and [mod]
   agree. *)
let set_of t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.sets

(* Global index of the valid line in [set] holding [tag], or -1. *)
let find_tag t ~set ~tag =
  let w = t.cfg.Config.ways in
  Slab.find_tag t.slab ~tag ~base:(set * w) ~len:w

(* As [find_tag], additionally requiring the filling pid to match (the
   RP cache's PID feature: the tag array stores the owning context). *)
let find_tag_owned t ~set ~tag ~owner =
  let w = t.cfg.Config.ways in
  Slab.find_tag_owned t.slab ~tag ~owner ~base:(set * w) ~len:w

(* The generic miss tail. Shared by the generic access paths only: the
   kernels keep their own flattened tail, because the generic paths are
   their differential oracle. *)
let[@inline] install t policy way ~addr ~pid ~seq =
  let s = t.slab in
  let evicted = Slab.victim s way in
  Slab.fill s way ~tag:addr ~owner:pid ~seq;
  Policy.filled policy s way;
  Outcome.fill ~fetched:addr ~evicted

(* --- cold paths ---------------------------------------------------- *)

let ways_of_set t ~set =
  let w = t.cfg.Config.ways in
  if set < 0 || set >= Config.sets t.cfg then
    invalid_arg "Backing.ways_of_set: set out of range";
  List.init w (fun i -> (set * w) + i)

(* Valid lines with their global index, as fresh boxed snapshots. *)
let dump t =
  let acc = ref [] in
  for i = t.slab.Slab.n - 1 downto 0 do
    if Slab.valid t.slab i then acc := (i, Slab.line t.slab i) :: !acc
  done;
  !acc

let flush_all t =
  Counters.record_eviction t.counters ~count:(Slab.clear t.slab)

let flush_at t ~pid i =
  if i >= 0 then begin
    Slab.invalidate t.slab i;
    Counters.record_flush t.counters ~pid;
    true
  end
  else false

(* --- the uniform engine projection ----------------------------------- *)

(* The one [Engine.t] literal behind every slab-backed architecture;
   each overrides what differs by record update. *)
let engine ?(kernel = Kernel.Auto) ?kernels ?set_of:index t ~name access =
  let access, access_run, kernel, run_kernel =
    match kernels with
    | None ->
      (access, Kernel.run_of_scalar access, Kernel.generic, Kernel.generic)
    | Some (label, k_access, k_run) ->
      Kernel.select kernel ~name:label ~fallback:access ~access:k_access
        ~run:k_run
  in
  let find addr =
    let set = match index with Some f -> f addr | None -> set_of t addr in
    find_tag t ~set ~tag:addr
  in
  {
    Engine.name;
    config = t.cfg;
    sigma = 0.;
    kernel;
    slab_bytes = Slab.bytes t.slab;
    access;
    access_run;
    run_kernel;
    peek = (fun ~pid:_ addr -> find addr >= 0);
    flush_line = (fun ~pid addr -> flush_at t ~pid (find addr));
    flush_all = (fun () -> flush_all t);
    lock_line = (fun ~pid:_ _ -> false);
    unlock_line = (fun ~pid:_ _ -> false);
    set_window = (fun ~pid:_ ~back:_ ~fwd:_ -> ());
    counters = (fun () -> Counters.global t.counters);
    counters_for = (fun pid -> Counters.for_pid t.counters pid);
    reset_counters = (fun () -> Counters.reset t.counters);
    dump = (fun () -> dump t);
  }
