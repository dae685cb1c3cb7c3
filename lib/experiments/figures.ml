open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_analysis
open Cachesec_report

open Cachesec_runtime
open Cachesec_telemetry

type scale = Quick | Full

let trials_for scale n =
  match scale with Full -> n | Quick -> Stdlib.max 50 (n / 10)

let scale_of (ctx : Run.ctx) = if ctx.Run.quick then Quick else Full

let figure4 () =
  let sigmas = List.init 31 (fun i -> float_of_int i /. 10.) in
  let series =
    [
      {
        Plot.name = "p5 = P(attacker classifies correctly)";
        points = List.map (fun (s, p) -> (s, p)) (Noise.figure4_series ~sigmas);
      };
    ]
  in
  "Figure 4: observation-noise edge probability p5 vs sigma\n"
  ^ Plot.render ~x_label:"noise sigma (hit/miss gap = 1)" ~y_min:0.5 ~y_max:1.0
      series
  ^ Printf.sprintf "  at the paper's sigma = 1: p5 = %.3f (paper: 0.691)\n"
      (Noise.p5 ~sigma:1.)

let figure8_specs =
  [
    ("SA/RP/RF 8-way", Spec.Sa { ways = 8; policy = Policy.Random });
    ("SA/RP/RF 32-way", Spec.Sa { ways = 32; policy = Policy.Random });
    ("RE 8-way T=10", Spec.Re { ways = 8; policy = Policy.Random; interval = 10 });
    ("Nomo 8-way 1/4", Spec.Nomo { ways = 8; policy = Policy.Random; reserved = 2 });
    ("Newcache", Spec.paper_newcache);
    ("SP / PL (locked)", Spec.paper_sp);
  ]

let figure8_series ~ks = Prepas.figure8_series ~specs:figure8_specs ~ks

let figure8 ?policy () =
  let ks = List.init 25 (fun i -> i * 5) in
  let specs, policy_label =
    match policy with
    | None -> (figure8_specs, "random replacement")
    | Some p ->
      ( List.map
          (fun (name, spec) -> (name, Spec.with_policy spec p))
          figure8_specs,
        Policy.to_string p ^ " replacement" )
  in
  let series =
    List.map
      (fun (name, pts) ->
        {
          Plot.name;
          points = List.map (fun (k, p) -> (float_of_int k, p)) pts;
        })
      (Prepas.figure8_series ~specs ~ks)
  in
  Printf.sprintf "Figure 8: pre-PAS vs attacker accesses k (%s)\n" policy_label
  ^ Plot.render ~x_label:"attacker memory accesses k" ~y_min:0. ~y_max:1. series

(* Downsample a 256-point curve for terminal display. *)
let curve_of_times times =
  Array.to_list (Array.mapi (fun i t -> (float_of_int i, t)) times)

(* Figures 9 and 10 follow the same submit-all-then-await shape as the
   validation matrix: with [pipeline:true] (default) every campaign's
   shards are dispatched onto the pool before the first result is
   awaited; [pipeline:false] is the strictly sequential pre-pool order
   (the sequential arm of the e2e bench). Renders are bit-identical
   either way — awaits happen in the same list order. *)
let render_figure9 ?(pipeline = true) (ctx : Run.ctx) =
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent "figure9"
  @@ fun sp ->
  let ctx = Run.with_parent sp ctx in
  let submit spec =
    let config =
      {
        Evict_time.default_config with
        Evict_time.trials = trials_for (scale_of ctx) 50000;
      }
    in
    Driver.map_pending (fun r -> (spec, r))
      (Driver.submit ctx (Driver.evict_time spec config))
  in
  let run spec = Driver.await (submit spec) in
  let render (spec, (r : Evict_time.result)) =
    let plot =
      Plot.render ~height:12
        ~x_label:"plaintext byte value (target byte 0)"
        [ { Plot.name = Spec.display_name spec; points = curve_of_times r.avg_times } ]
    in
    Printf.sprintf
      "%s\n%s  key byte high nibble recovered: %b (winner 0x%02x, true 0x%02x, \
       z = %.1f)\n"
      (Spec.display_name spec)
      plot r.nibble_recovered r.best_candidate r.true_byte r.separation
  in
  let sa, nc =
    if pipeline then begin
      let psa = submit Spec.paper_sa in
      let pnc = submit Spec.paper_newcache in
      (Driver.await psa, Driver.await pnc)
    end
    else begin
      let sa = run Spec.paper_sa in
      let nc = run Spec.paper_newcache in
      (sa, nc)
    end
  in
  "Figure 9: evict-and-time validation, SA cache (leaks) vs Newcache (flat)\n\n"
  ^ render sa ^ "\n" ^ render nc

let figure10_specs =
  [
    Spec.paper_sa;
    Spec.paper_sp;
    Spec.paper_pl;
    Spec.paper_newcache;
    Spec.paper_rp;
    Spec.paper_re;
  ]

let render_figure10 ?(pipeline = true) (ctx : Run.ctx) =
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent "figure10"
  @@ fun sp ->
  let ctx = Run.with_parent sp ctx in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 10: prime-and-probe validation across six caches\n\
     (normalised candidate-key scores; a spike at the true byte's nibble = leak)\n\n";
  let submit spec =
    let config =
      {
        Prime_probe.default_config with
        Prime_probe.trials = trials_for (scale_of ctx) 1500;
        lock_victim_tables = (match spec with Spec.Pl _ -> true | _ -> false);
      }
    in
    Driver.submit ctx (Driver.prime_probe spec config)
  in
  let emit spec (r : Prime_probe.result) =
    let normalized = Recovery.normalize r.Prime_probe.scores in
    Buffer.add_string buf
      (Printf.sprintf "%s\n%s  nibble recovered: %b (winner 0x%02x, true 0x%02x)\n\n"
         (Spec.display_name spec)
         (Plot.render ~height:10 ~x_label:"key byte candidate"
            [ { Plot.name = Spec.display_name spec; points = curve_of_times normalized } ])
         r.Prime_probe.nibble_recovered r.Prime_probe.best_candidate
         r.Prime_probe.true_byte)
  in
  (if pipeline then begin
     let subs = List.map (fun spec -> (spec, submit spec)) figure10_specs in
     List.iter (fun (spec, sub) -> emit spec (Driver.await sub)) subs
   end
   else
     List.iter (fun spec -> emit spec (Driver.await (submit spec)))
       figure10_specs);
  Buffer.contents buf

let render_prepas_crosscheck (ctx : Run.ctx) =
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent
    "prepas-crosscheck"
  @@ fun sp ->
  let ctx = Run.with_parent sp ctx in
  let seed = ctx.Run.seed in
  let samples = trials_for (scale_of ctx) 2000 in
  let ks = [ 4; 8; 16; 32; 64 ] in
  let specs =
    [
      Spec.paper_sa;
      Spec.paper_sp;
      Spec.paper_pl;
      Spec.paper_nomo;
      Spec.paper_newcache;
      Spec.paper_rp;
      Spec.paper_rf;
      Spec.Re { ways = 8; policy = Policy.Random; interval = 10 };
    ]
  in
  let headers = "Cache" :: List.map (fun k -> Printf.sprintf "k=%d" k) ks in
  let nks = List.length ks in
  (* Every (spec, k) cell is an independent Monte-Carlo surface: it gets
     its own derived seed and fans its samples out over the trial
     runtime, so the whole cross-check is reproducible cell-by-cell and
     jobs-invariant. All 40 cleaning-game campaigns are submitted onto
     the pool before the first await — the cell seeds are derived from
     [(seed, si, ki)] exactly as in the sequential formulation, so the
     table is unchanged, only the wall-clock. *)
  let pending_rows =
    List.mapi
      (fun si spec ->
        let analytical =
          List.map (fun k -> Table.fmt_prob (Prepas.for_spec spec ~k)) ks
        in
        let empirical =
          List.mapi
            (fun ki k ->
              let cell_seed = Rng.derive_seed seed ((si * nks) + ki + 1) in
              Driver.map_pending Table.fmt_prob
                (Driver.submit (Run.with_seed cell_seed ctx)
                   (Driver.cleaning_game spec ~accesses:k ~samples)))
            ks
        in
        (spec, analytical, empirical))
      specs
  in
  let rows =
    List.concat
      (List.map
         (fun (spec, analytical, empirical) ->
           [
             (Spec.display_name spec ^ " (closed form)") :: analytical;
             (Spec.display_name spec ^ " (Monte Carlo)")
             :: Driver.await_all empirical;
           ])
         pending_rows)
  in
  "Pre-PAS: closed form (paper Section 5) vs Monte-Carlo cleaning game\n\
   (RE shown 8-way to exhibit the free-lunch effect; RP's Monte Carlo is \n\
   lower than the closed form by design - see DESIGN.md)\n"
  ^ Table.render ~headers ~rows ()
