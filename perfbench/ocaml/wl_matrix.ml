(* The [matrix] workload: the paper's 9-architecture x 4-attack validation
   matrix at quick-scale fixed trial budgets on [jobs = nproc] workers.

   A run has two phases. The pipelined phase calls [Validation.cells]
   (the entry point of `pas-tool validate`) and times whole matrices:
   [pass_wall_s]. The cell phase computes the same 36 cells one serial
   [Validation.cell] at a time, the unit of work the serve daemon runs
   for a validate query, and times every cell: [op_p50_ms] /
   [op_p90_ms]. (Cells on all workers were tried first: their latency
   follows the slower of the two cores and spread 0.35 at p50 over ten
   runs.) Both phases must yield the same, bit-identical cell list. *)

open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments
module Run = Cachesec_runtime.Run
module Pool = Cachesec_runtime.Pool

let combos =
  List.concat_map (fun s -> List.map (fun a -> (s, a)) Attack_type.all) Spec.all_paper

let ncells = List.length combos
let run_ctx (b : Bench.ctx) = Run.make ~jobs:b.jobs ~quick:true ~seed:b.seed ()

let cell_line (c : Validation.cell) =
  Printf.sprintf "%s|%s|pas=%h|predicted=%b|recovered=%b|separation=%h|agrees=%b|trials=%d/%d"
    c.Validation.arch (Attack_type.name c.attack) c.pas c.predicted_leak c.recovered
    c.separation c.agrees c.trials c.max_trials

let digest cells = Util.hex_digest (String.concat "\n" (List.map cell_line cells))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A cell is well-formed when its prediction is the closed form's and its
   verdict follows from prediction and simulation. *)
let cell_ok (spec, attack) (c : Validation.cell) =
  let predicted = Resilience.classify spec attack = Resilience.Low in
  c.Validation.arch = Spec.display_name spec
  && c.attack = attack
  && same_float c.pas (Attack_models.pas attack spec ())
  && c.predicted_leak = predicted
  && c.agrees = (predicted = c.recovered)
  && c.trials = c.max_trials

let note = Bench.note

(* Compare one matrix against the run's first (and the recorded digest):
   a differing cell is a failed operation. *)
let check_matrix (ck : Bench.check) ~first (b : Bench.ctx) cells =
  ck.attempted <- ck.attempted + ncells;
  match !first with
  | None ->
    first := Some cells;
    let bad = List.length (List.filter not (List.map2 cell_ok combos cells)) in
    if bad > 0 then note ck (Printf.sprintf "matrix: %d cells disagree with the closed forms" bad);
    let bad =
      match Reference.check b.reference ~workload:"matrix" ~seed:b.seed (digest cells) with
      | Ok n ->
        note ck n;
        bad
      | Error e ->
        note ck e;
        ncells
    in
    ck.failed <- ck.failed + bad
  | Some ref_cells ->
    let bad =
      List.length
        (List.filter not (List.map2 (fun a b -> cell_line a = cell_line b) ref_cells cells))
    in
    if bad > 0 then note ck (Printf.sprintf "matrix: %d cells differ from the first pass" bad);
    ck.failed <- ck.failed + bad

let attempt_matrix (ck : Bench.check) f =
  match f () with
  | cells -> Some cells
  | exception e ->
    note ck ("matrix pass raised " ^ Printexc.to_string e);
    ck.attempted <- ck.attempted + ncells;
    ck.failed <- ck.failed + ncells;
    None

(* The pipelined matrix. Traced runs unroll [Validation.cells] into its
   own two calls (submit every cell, then await in order) so that every
   cell gets a span from submit to await; untraced runs call it as is. *)
let pipelined (b : Bench.ctx) ctx ~parent =
  if not (Spans.on b.spans) then (Validation.cells ctx, [])
  else begin
    let pend =
      List.mapi
        (fun i (spec, attack) ->
          let id =
            Spans.enter b.spans ~parent ~req:(i + 1) ~layer:"experiments"
              ("cell:" ^ Spec.name spec ^ ":" ^ Attack_type.name attack)
          in
          (id, Util.now_s (), Validation.submit_cell ctx spec attack))
        combos
    in
    let cells, walls =
      List.split
        (List.map
           (fun (id, t0, p) ->
             let c = Driver.await p in
             Spans.leave b.spans id;
             (c, Util.now_s () -. t0))
           pend)
    in
    (cells, walls)
  end

(* One pipelined matrix: its wall and its cells' submit-to-await walls. *)
let pipelined_pass (b : Bench.ctx) (ck : Bench.check) ~first ctx =
  let id = Spans.enter b.spans ~layer:"experiments" "matrix_pass" in
  let res, wall = Util.time (fun () -> attempt_matrix ck (fun () -> pipelined b ctx ~parent:id)) in
  Spans.leave b.spans id;
  Option.map
    (fun (cells, cell_walls) ->
      check_matrix ck ~first b cells;
      (wall, cell_walls))
    res

(* The 36 cells one serial [Validation.cell] at a time: each cell's wall. *)
let cell_pass (b : Bench.ctx) (ck : Bench.check) ~first =
  let ctx = Run.make ~quick:true ~seed:b.seed () in
  Option.map
    (fun timed ->
      check_matrix ck ~first b (List.map fst timed);
      List.map snd timed)
    (attempt_matrix ck (fun () ->
         List.map (fun (spec, attack) -> Util.time (fun () -> Validation.cell ctx spec attack)) combos))

type phase = { walls : float list; busy_s : float }

let run_pipelined (b : Bench.ctx) (ck : Bench.check) ~first ~n =
  let ctx = run_ctx b in
  let started = Util.now_s () in
  let busy0 = Pool.busy_seconds () in
  let walls = ref [] and cell_walls = ref [] in
  (try
     for _ = 1 to n do
       if Bench.out_of_time b ~started then raise Exit;
       Option.iter
         (fun (w, cw) ->
           walls := w :: !walls;
           cell_walls := cw @ !cell_walls)
         (pipelined_pass b ck ~first ctx)
     done
   with Exit -> note ck "matrix: cut short by the time limit");
  ({ walls = List.rev !walls; busy_s = Pool.busy_seconds () -. busy0 }, !cell_walls)

let reference_matrix_s = 2.4
let reference_cells_s = 4.1

let run_timed (b : Bench.ctx) =
  let ck = Bench.new_check () in
  let first = ref None in
  (* Two thirds of the run for whole matrices, a third (at least three
     passes, so that the cell p90 has ten samples beyond it) for cells,
     the cell passes spread evenly between the matrices so that both
     sample the whole run's host speed. *)
  let share k = { b with seconds = max 1 (b.seconds * k / 3) } in
  let np = Bench.passes (share 2) ~reference_pass_s:reference_matrix_s ~min:3 in
  let nq = Bench.passes (share 1) ~reference_pass_s:reference_cells_s ~min:3 in
  let rounds = max np nq in
  let setup =
    Setup_probe.spread ~passes:rounds (fun () ->
        Setup_probe.once ~exe:b.self_exe ~workload:"matrix" ~jobs:b.jobs)
  in
  let ctx = run_ctx b in
  let started = Util.now_s () in
  let walls = ref [] and cell_lat = ref [] and ncell = ref 0 in
  (try
     for i = 0 to rounds - 1 do
       if Bench.out_of_time b ~started then raise Exit;
       Setup_probe.before_pass setup i;
       if i * np / rounds <> (i + 1) * np / rounds then
         Option.iter (fun (w, _) -> walls := w :: !walls) (pipelined_pass b ck ~first ctx);
       if i * nq / rounds <> (i + 1) * nq / rounds then
         Option.iter
           (fun l ->
             incr ncell;
             cell_lat := l @ !cell_lat)
           (cell_pass b ck ~first)
     done
   with Exit -> note ck "matrix: cut short by the time limit");
  let walls = List.rev !walls in
  let setup_s = setup.times in
  List.iter (note ck) setup.errors;
  let rss = Util.peak_rss_mb None in
  let agreement =
    match !first with Some cells -> Validation.agreement_rate cells | None -> nan
  in
  let med = Util.median_or_nan in
  let lat_ms = List.map (fun s -> s *. 1000.) !cell_lat in
  let wall = med walls and p50 = med lat_ms in
  let tp, tail = Util.tail_or_max lat_ms in
  note ck
    (Printf.sprintf
       "samples: %d matrix passes, %d cell latencies from %d cell passes, %d set-up probes"
       (List.length walls) (List.length lat_ms) !ncell (List.length setup_s));
  note ck ("matrix pass walls (s): " ^ Util.describe walls);
  Bench.outcome ck
    ~e2e:
      Bench.
        [
          m "setup_s" (med setup_s) "s";
          m "peak_rss_mb" rss "MB";
          m "pass_wall_s" wall "s";
          m "op_p50_ms" p50 "ms";
          m "op_p90_ms" (Util.p90_or_max lat_ms) "ms";
        ]
    ~named:
      Bench.
        [
          m "matrix_wall_s" wall "s";
          m "matrix_agreement" agreement "share";
          m "matrix_cell_p50_ms" p50 "ms";
          m (Printf.sprintf "matrix_cell_p%g_ms" tp) tail "ms";
        ]
    ~layers:[]

(* Exact work counts of one matrix, cell by cell: each cell runs with
   its own counting telemetry (never in a timed pass). The pool is
   drained around it so that Gc.quick_stat includes the workers'
   allocations. *)
let count_pass (b : Bench.ctx) (ck : Bench.check) ~first =
  let module Telemetry = Cachesec_telemetry.Telemetry in
  Pool.quiesce ();
  let g0 = Gc.quick_stat () in
  let per_cell =
    List.map
      (fun (spec, attack) ->
        let tm = Telemetry.make ~sink:Cachesec_telemetry.Sink.null () in
        let c = Validation.cell (Run.with_telemetry tm (run_ctx b)) spec attack in
        let cnt k = Option.value (List.assoc_opt k (Telemetry.counters tm)) ~default:0 in
        ((spec, attack), c, float_of_int (cnt "cache.accesses"), float_of_int (cnt "driver.batches")))
      combos
  in
  Pool.quiesce ();
  let g1 = Gc.quick_stat () in
  check_matrix ck ~first b (List.map (fun (_, c, _, _) -> c) per_cell);
  (per_cell, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let run_traced (b : Bench.ctx) =
  let ck = Bench.new_check () in
  let first = ref None in
  let n =
    Bench.passes { b with seconds = max 1 (b.seconds / 2) } ~reference_pass_s:reference_matrix_s
      ~min:3
  in
  let plain, _ = run_pipelined { b with spans = Spans.create ~on:false } ck ~first ~n in
  let traced, cell_walls = run_pipelined b ck ~first ~n in
  let med = Util.median_or_nan in
  let wall = med plain.walls in
  let t = Layers.table () in
  let set = Layers.set t in
  let enc_ns =
    Layers.common b.spans t ~seed:b.seed ~batched:true ~route_lines:(Inputs.hot_set b.seed)
  in
  let probes = Layers.attack_table b.spans t ~seed:b.seed ~enc_ns in
  let per_cell, minor, major = count_pass b ck ~first in
  let fsum f = Util.sum (List.map f per_cell) in
  let accesses = fsum (fun (_, _, a, _) -> a) in
  let trials = fsum (fun (_, c, _, _) -> float_of_int c.Validation.trials) in
  let generic =
    fsum (fun ((spec, _), _, a, _) ->
        if (Setup.make spec).Setup.engine.Engine.run_kernel = Kernel.generic then a else 0.)
  in
  set "cache.accesses" accesses;
  set "cache.generic_access_share" (generic /. accesses);
  set "cache.minor_words_per_access" (minor /. accesses);
  set "gc.minor_words" minor;
  set "gc.major_collections" (float_of_int major);
  set "gc.minor_words_per_trial" (minor /. trials);
  set "runtime.batches" (fsum (fun (_, _, _, n) -> n));
  (* One pipelined matrix on [jobs] workers: busy, idle, and the busy
     time split by unit costs x exact counts. *)
  let workers = float_of_int b.jobs in
  let passes = float_of_int (max 1 (List.length plain.walls)) in
  let busy = if b.jobs > 1 then plain.busy_s /. passes else wall in
  let capacity = if b.jobs > 1 then workers *. wall else wall in
  set "runtime.pool_busy_s" busy;
  set "runtime.utilization" (busy /. capacity);
  set "runtime.idle_s" (capacity -. busy);
  set "experiments.cell_wall_p50_s" (med cell_walls);
  set "experiments.cell_wall_max_s" (List.fold_left Float.max 0. cell_walls);
  let ns spec = Hashtbl.find t ("cache.ns_per_access." ^ Spec.name spec) in
  let cache_s = fsum (fun ((spec, _), _, a, _) -> a *. ns spec *. 1e-9) in
  let crypto_s, attacks_s =
    List.fold_left
      (fun (cr, at) ((spec, attack), c, _, _) ->
        let p = List.assoc (spec, attack) probes in
        let tr = float_of_int c.Validation.trials in
        let enc_us = p.Layers.encrypts_per_trial *. enc_ns /. 1000. in
        let self_us =
          p.Layers.us_per_trial -. (p.Layers.accesses_per_trial *. ns spec /. 1000.) -. enc_us
        in
        (cr +. (tr *. enc_us *. 1e-6), at +. (tr *. Float.max 0. self_us *. 1e-6)))
      (0., 0.) per_cell
  in
  let self = Spans.self_by_layer b.spans in
  let span_self l = Option.value (List.assoc_opt l self) ~default:0. in
  set "self.cache_s" cache_s;
  set "self.crypto_s" crypto_s;
  set "self.attacks_s" attacks_s;
  set "self.runtime_s" (capacity -. busy);
  set "self.experiments_s"
    (span_self "experiments" /. float_of_int (max 1 (List.length traced.walls)));
  set "self.residual_s" (busy -. cache_s -. crypto_s -. attacks_s);
  set "trace.overhead_share" ((med traced.walls /. wall) -. 1.);
  note ck
    (Printf.sprintf "traced: %d untraced + %d traced matrix passes, %d spans" (List.length plain.walls)
       (List.length traced.walls) (Spans.count b.spans));
  Bench.outcome ck ~e2e:[] ~named:[ Bench.m "matrix_wall_s" wall "s" ] ~layers:(Layers.emit t)

let run (b : Bench.ctx) = if b.trace then run_traced b else run_timed b
