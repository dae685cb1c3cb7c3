open Cachesec_cache
open Cachesec_crypto
open Cachesec_stats

type config = {
  trials : int;
  target_byte : int;
  target_table_line : int;
  lock_victim_tables : bool;
}

let default_config =
  { trials = 50000; target_byte = 0; target_table_line = 3; lock_victim_tables = false }

type result = {
  avg_times : float array;
  counts : int array;
  scores : float array;
  best_candidate : int;
  true_byte : int;
  nibble_recovered : bool;
  separation : float;
}

let validate layout c =
  if c.trials <= 0 then invalid_arg "Evict_time.run: trials must be positive";
  if c.target_byte < 0 || c.target_byte > 15 then
    invalid_arg "Evict_time.run: target_byte must be in 0..15";
  if c.target_table_line < 0 || c.target_table_line >= Aes_layout.lines_per_table layout
  then invalid_arg "Evict_time.run: target_table_line out of range"

(* --- partial (mergeable) trial accumulators -------------------------- *)

(* [times] is a Welford summary of every observed block time — the
   estimator the adaptive runtime stops on ([observe]). It rides along
   without touching the per-bin sums the finalize consumes, so adding it
   changes no result field (the golden digests pin this). *)
type partial = { sums : float array; counts : int array; times : Summary.t }

let empty_partial () =
  { sums = Array.make 256 0.; counts = Array.make 256 0; times = Summary.create () }

(* In-place fold — see [Prime_probe.merge_into] for the single-consumer
   argument that makes mutating the accumulator safe. *)
let merge_into a b =
  for i = 0 to 255 do
    a.sums.(i) <- a.sums.(i) +. b.sums.(i);
    a.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  Summary.merge_into a.times b.times

let observe p = Sequential.Mean_rel p.times

(* One contiguous span of the global trial index space, [first+1 ..
   first+count]. The global index matters: the attacker rotates through
   4096 distinct conflict-line bases keyed on it, and keeping that keyed
   on the *global* trial number makes a sharded run visit exactly the
   same base sequence as a monolithic one. *)
let run_span ~victim ~attacker_pid ~rng ~first ~count c =
  let layout = Victim.layout victim in
  validate layout { c with trials = count };
  let engine = Victim.engine victim in
  let epl = Aes_layout.entries_per_line layout in
  let table = c.target_byte mod 4 in
  let target_set =
    Aes_layout.set_of_entry layout ~table ~index:(c.target_table_line * epl)
  in
  if c.lock_victim_tables then ignore (Victim.lock_tables victim);
  let ({ sums; counts; times } as part) = empty_partial () in
  let cfg = engine.Engine.config in
  let sets = Config.sets cfg in
  let ways = cfg.Config.ways in
  let stride = ways * sets in
  let p = Bytes.create 16 in
  (* Per-span eviction scratch: the [ways] conflict lines of the trial's
     rotating base, refilled in place and replayed as one batched Fill
     run (same addresses and order as [Attacker.evict_set]). *)
  let ev = Array.make ways 0 in
  for trial = first + 1 to first + count do
    Victim.warm_tables victim;
    (* Fresh conflict lines every trial: each of the [ways] accesses is a
       miss, so the eviction pressure on the target set is full (with the
       same lines, later trials mostly hit and evict nothing). *)
    let base = Attacker.default_base + (trial mod 4096 * stride) in
    let aligned = base - (base mod sets) in
    for k = 0 to ways - 1 do
      Array.unsafe_set ev k (aligned + target_set + (k * sets))
    done;
    engine.Engine.access_run ~pid:attacker_pid ~trace:ev ~pos:0 ~len:ways
      Kernel.Fill;
    Victim.random_plaintext_into rng p;
    let m = Victim.encrypt_misses victim p in
    let time = Timing.time_of_counts ~hits:(Aes.trace_length - m) ~misses:m in
    let observed =
      if engine.Engine.sigma = 0. then time
      else time +. Rng.gaussian rng ~mu:0. ~sigma:engine.Engine.sigma
    in
    let bin = Char.code (Bytes.get p c.target_byte) in
    sums.(bin) <- sums.(bin) +. observed;
    counts.(bin) <- counts.(bin) + 1;
    Summary.add times observed
  done;
  part

let finalize ~victim c { sums; counts; _ } =
  let layout = Victim.layout victim in
  let epl = Aes_layout.entries_per_line layout in
  let grand_total = Array.fold_left ( +. ) 0. sums in
  let grand_count = Array.fold_left ( + ) 0 counts in
  let grand_mean = grand_total /. float_of_int grand_count in
  let avg_times =
    Array.init 256 (fun v ->
        if counts.(v) = 0 then grand_mean else sums.(v) /. float_of_int counts.(v))
  in
  (* Candidate k: plaintext values p with (p xor k) on the evicted line
     should time high. Score = mean(avg over hot values) - grand mean. *)
  let scores =
    Array.init 256 (fun k ->
        let hot = ref 0. in
        for low = 0 to epl - 1 do
          let index = (c.target_table_line * epl) + low in
          hot := !hot +. avg_times.(index lxor k)
        done;
        (!hot /. float_of_int epl) -. grand_mean)
  in
  let true_byte = Char.code (Bytes.get (Aes.key_bytes (Victim.key victim)) c.target_byte) in
  let best_candidate = Recovery.argmax scores in
  {
    avg_times;
    counts;
    scores;
    best_candidate;
    true_byte;
    nibble_recovered = Recovery.nibble_recovered ~scores ~true_byte ~group_size:epl;
    separation = Recovery.separation scores ~winner:best_candidate;
  }

let run ~victim ~attacker_pid ~rng c =
  validate (Victim.layout victim) c;
  finalize ~victim c (run_span ~victim ~attacker_pid ~rng ~first:0 ~count:c.trials c)
