(* The [replay] workload: seeded synthetic traces replayed through every
   (architecture, policy) engine with the scalar [Engine.access] path
   ([Workload.replay]), serially in one process. A cell is one engine
   built fresh and one trace replayed through it; a pass is every cell. *)

open Cachesec_cache
module Rng = Cachesec_stats.Rng

let spec_label spec =
  Spec.name spec ^ ":"
  ^ match Spec.policy_of spec with Some p -> Policy.to_string p | None -> "secrand"

type cell = { idx : int; spec : Spec.t; pattern : string; trace : int array }

let cells traces =
  List.concat_map (fun spec -> List.map (fun (pattern, trace) -> (spec, pattern, trace)) traces)
    Inputs.replay_specs
  |> List.mapi (fun idx (spec, pattern, trace) -> { idx; spec; pattern; trace })

let build ~seed c =
  Factory.build c.spec Factory.default_scenario
    ~rng:(Rng.create ~seed:(Rng.derive_seed seed (1000 + c.idx)))

let line c (s : Counters.snapshot) =
  Printf.sprintf "%s|%s|accesses=%d hits=%d misses=%d evictions=%d read_throughs=%d"
    (spec_label c.spec) c.pattern s.Counters.accesses s.hits s.misses s.evictions s.read_throughs

type sample = { c : cell; line : string; replay_s : float; build_s : float; minor : float }

(* One pass: every cell on a fresh engine. *)
let pass (b : Bench.ctx) cells =
  let pid = Spans.enter b.spans ~layer:"replay" "replay_pass" in
  let out =
    List.map
      (fun c ->
        let e, build_s =
          Util.time (fun () ->
              Spans.with_span b.spans ~parent:pid ~req:c.idx ~layer:"cache"
                ("build:" ^ spec_label c.spec) (fun _ -> build ~seed:b.seed c))
        in
        let g0 = Gc.minor_words () in
        let (), replay_s =
          Util.time (fun () ->
              Spans.with_span b.spans ~parent:pid ~req:c.idx ~layer:"cache"
                ("replay:" ^ spec_label c.spec ^ ":" ^ c.pattern) (fun _ ->
                  Workload.replay e ~pid:0 c.trace))
        in
        let minor = Gc.minor_words () -. g0 in
        { c; line = line c (e.Engine.counters ()); replay_s; build_s; minor })
      cells
  in
  Spans.leave b.spans pid;
  out

let note = Bench.note

(* Every pass must reproduce the first cell for cell; the first pass must
   match the recorded digest (when the seed has one). *)
let check_pass (ck : Bench.check) ~first (b : Bench.ctx) samples =
  let n = List.length samples in
  ck.attempted <- ck.attempted + n;
  match !first with
  | None ->
    first := Some samples;
    let d = Inputs.digest_lines (List.map (fun s -> s.line) samples) in
    (match Reference.check b.reference ~workload:"replay" ~seed:b.seed d with
    | Ok msg -> note ck msg
    | Error msg ->
      note ck msg;
      ck.failed <- ck.failed + n)
  | Some ref_samples ->
    let bad =
      List.length (List.filter not (List.map2 (fun a b -> a.line = b.line) ref_samples samples))
    in
    if bad > 0 then note ck (Printf.sprintf "replay: %d cells differ from the first pass" bad);
    ck.failed <- ck.failed + bad

(* Independent of any recording: the batched [access_run] path must
   leave the same counters as the scalar replay. *)
let cross_check (ck : Bench.check) (b : Bench.ctx) samples =
  let bad =
    List.filter
      (fun s ->
        let e = build ~seed:b.seed s.c in
        e.Engine.access_run ~pid:0 ~trace:s.c.trace ~pos:0 ~len:(Array.length s.c.trace) Kernel.Fill;
        line s.c (e.Engine.counters ()) <> s.line)
      samples
  in
  ck.attempted <- ck.attempted + List.length samples;
  ck.failed <- ck.failed + List.length bad;
  note ck
    (Printf.sprintf "replay: batched access_run agrees with scalar replay on %d of %d cells"
       (List.length samples - List.length bad) (List.length samples))

let reference_pass_s = 0.95

let run_passes ?(before = ignore) (b : Bench.ctx) (ck : Bench.check) ~first ~n cells =
  let started = Util.now_s () in
  let rec go k acc =
    if k = n then List.rev acc
    else if Bench.out_of_time b ~started then begin
      note ck "replay: cut short by the time limit";
      List.rev acc
    end
    else begin
      before k;
      let samples, wall = Util.time (fun () -> pass b cells) in
      check_pass ck ~first b samples;
      go (k + 1) ((samples, wall) :: acc)
    end
  in
  go 0 []

let pass_accesses cells = float_of_int (List.fold_left (fun a c -> a + Array.length c.trace) 0 cells)

let run_timed (b : Bench.ctx) =
  let ck = Bench.new_check () in
  let cells = cells (Inputs.replay_traces b.seed) in
  let first = ref None in
  let n = Bench.passes b ~reference_pass_s ~min:3 in
  let setup =
    Setup_probe.spread ~passes:n (fun () ->
        Setup_probe.once ~exe:b.self_exe ~workload:"replay" ~jobs:1)
  in
  let passes = run_passes ~before:(Setup_probe.before_pass setup) b ck ~first ~n cells in
  let setup_s = setup.times in
  List.iter (note ck) setup.errors;
  Option.iter (cross_check ck b) !first;
  let lat_ms = List.concat_map (fun (s, _) -> List.map (fun x -> x.replay_s *. 1000.) s) passes in
  let med = Util.median_or_nan in
  let wall = med (List.map snd passes) in
  let p50 = med lat_ms and tp, tail = Util.tail_or_max lat_ms in
  note ck
    (Printf.sprintf
       "samples: %d passes of %d cells, %d cell latencies, %d set-up probes"
       (List.length passes) (List.length cells) (List.length lat_ms) (List.length setup_s));
  note ck ("replay pass walls (s): " ^ Util.describe (List.map snd passes));
  Bench.outcome ck
    ~e2e:
      Bench.
        [
          m "setup_s" (med setup_s) "s";
          m "peak_rss_mb" (Util.peak_rss_mb None) "MB";
          m "pass_wall_s" wall "s";
          m "op_p50_ms" p50 "ms";
          m "op_p90_ms" (Util.p90_or_max lat_ms) "ms";
        ]
    ~named:
      Bench.
        [
          m "replay_accesses_per_s" (pass_accesses cells /. wall) "1/s";
          m "replay_cell_p50_ms" p50 "ms";
          m (Printf.sprintf "replay_cell_p%g_ms" tp) tail "ms";
        ]
    ~layers:[]

let run_traced (b : Bench.ctx) =
  let ck = Bench.new_check () in
  let cells = cells (Inputs.replay_traces b.seed) in
  let first = ref None in
  let n = Bench.passes { b with seconds = max 1 (b.seconds / 2) } ~reference_pass_s ~min:3 in
  let g0 = Gc.quick_stat () in
  let plain = run_passes { b with spans = Spans.create ~on:false } ck ~first ~n cells in
  let g1 = Gc.quick_stat () in
  let traced = run_passes b ck ~first ~n cells in
  let med = Util.median_or_nan in
  let wall = med (List.map snd plain) in
  let t = Layers.table () in
  let set = Layers.set t in
  ignore
    (Layers.common b.spans t ~seed:b.seed ~batched:false ~route_lines:(Inputs.hot_set b.seed));
  let samples = List.concat_map fst plain in
  let npasses = float_of_int (max 1 (List.length plain)) in
  List.iter
    (fun spec ->
      let mine = List.filter (fun s -> Spec.name s.c.spec = Spec.name spec) samples in
      let acc = Util.sum (List.map (fun s -> float_of_int (Array.length s.c.trace)) mine) in
      set ("cache.ns_per_access." ^ Spec.name spec)
        (Util.sum (List.map (fun s -> s.replay_s) mine) *. 1e9 /. acc))
    Spec.all_paper;
  let accesses = pass_accesses cells in
  let minor = Util.sum (List.map (fun s -> s.minor) samples) /. npasses in
  let generic =
    Util.sum
      (List.map
         (fun s ->
           if (build ~seed:b.seed s.c).Engine.kernel = Kernel.generic then
             float_of_int (Array.length s.c.trace)
           else 0.)
         (Option.value !first ~default:[]))
  in
  set "cache.accesses" accesses;
  set "cache.generic_access_share" (generic /. accesses);
  set "cache.minor_words_per_access" (minor /. accesses);
  set "cache.build_us" (med (List.map (fun s -> s.build_s *. 1e6) samples));
  set "gc.minor_words" minor;
  set "gc.minor_words_per_trial" (minor /. float_of_int (List.length cells));
  let tpasses = float_of_int (max 1 (List.length traced)) in
  (* Cache self time from the workload's own spans only, not the probes. *)
  let cache_s =
    Util.sum (List.concat_map (fun (s, _) -> List.map (fun x -> x.replay_s +. x.build_s) s) traced)
    /. tpasses
  in
  set "self.cache_s" cache_s;
  set "self.residual_s" ((Util.sum (List.map snd traced) /. tpasses) -. cache_s);
  set "trace.overhead_share" ((med (List.map snd traced) /. wall) -. 1.);
  set "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. npasses);
  note ck
    (Printf.sprintf "traced: %d untraced + %d traced passes, %d spans" (List.length plain)
       (List.length traced) (Spans.count b.spans));
  let named = [ Bench.m "replay_accesses_per_s" (accesses /. wall) "1/s" ] in
  Bench.outcome ck ~e2e:[] ~named ~layers:(Layers.emit t)

let run (b : Bench.ctx) = if b.trace then run_traced b else run_timed b
