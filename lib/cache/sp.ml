type t = {
  b : Backing.t;
  policy : Policy.t;
  partitions : int;
  per : int;  (** sets per partition, precomputed off the access path *)
  home : int -> int;
  partition_of_pid : int -> int;
}

let create ?(config = Config.standard) ?(policy = Policy.Random)
    ?(partitions = 2) ~home ~partition_of_pid ~rng () =
  if partitions <= 0 then invalid_arg "Sp.create: partitions must be positive";
  if Config.sets config mod partitions <> 0 then
    invalid_arg "Sp.create: partitions must divide the set count";
  {
    b = Backing.create config ~rng;
    policy;
    partitions;
    per = Config.sets config / partitions;
    home;
    partition_of_pid;
  }

(* Top-level scan: a [List.exists] closure capturing [line] would be
   allocated on every access. [line : int] keeps the comparisons off
   the polymorphic [compare]. *)
let rec in_ranges (line : int) = function
  | [] -> false
  | (lo, hi) :: rest -> (line >= lo && line <= hi) || in_ranges line rest

let create_two_domain ?config ?policy ?partitions ~victim_pid ~victim_lines
    ~rng () =
  let home line = if in_ranges line victim_lines then 0 else 1 in
  let partition_of_pid pid = if pid = victim_pid then 0 else 1 in
  create ?config ?policy ?partitions ~home ~partition_of_pid ~rng ()

let config t = t.b.Backing.cfg
let sets_per_partition t = Config.sets t.b.Backing.cfg / t.partitions

let check_partition t p who =
  if p < 0 || p >= t.partitions then
    invalid_arg (Printf.sprintf "Sp: %s returned partition %d of %d" who p t.partitions)

(* The set of a line is determined by its home partition, so both processes
   agree on where a shared line lives. *)
let set_of t addr =
  let p = t.home addr in
  check_partition t p "home";
  (p * t.per) + (addr mod t.per)

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
      let own = t.partition_of_pid pid in
      check_partition t own "partition_of_pid";
      if own <> t.home addr then
        (* Cross-partition miss: served from memory, nothing displaced. *)
        Outcome.miss_uncached
      else
        let way =
          Policy.victim_in t.policy b.rng s
            ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
        in
        Backing.install b t.policy way ~addr ~pid ~seq
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine t =
  Backing.engine t.b ~set_of:(set_of t)
    ~name:
      (Printf.sprintf "sp-%d-part-%d-way" t.partitions (config t).Config.ways)
    (fun ~pid addr -> access t ~pid addr)
