open Cachesec_cache
open Cachesec_analysis
open Cachesec_report

let sa_config ways = Config.v ~line_bytes:64 ~lines:512 ~ways

let associativity_sweep ~ways =
  List.map
    (fun w ->
      let spec = Spec.Sa { ways = w; policy = Policy.Random } in
      let pas =
        Attack_models.pas ~config:(sa_config w) Attack_type.Evict_and_time spec ()
      in
      let prepas = Prepas.sa_random ~ways:w ~k:(2 * w) in
      (w, pas, prepas))
    ways

let cache_size_sweep ~lines =
  List.map
    (fun n ->
      if n <= 0 then invalid_arg "Sweeps.cache_size_sweep: lines must be positive";
      let config = Config.v ~line_bytes:64 ~lines:n ~ways:n in
      let pas =
        Attack_models.pas ~config Attack_type.Evict_and_time
          (Spec.Newcache { extra_bits = 4 })
          ()
      in
      (n, pas))
    lines

let rf_window_sweep ~windows =
  List.map
    (fun w ->
      let spec = Spec.Rf { ways = 8; policy = Policy.Random; back = w; fwd = w } in
      ( w,
        Attack_models.pas Attack_type.Cache_collision spec (),
        Attack_models.pas Attack_type.Prime_and_probe spec () ))
    windows

let re_interval_sweep ~intervals =
  List.map
    (fun t ->
      let spec = Spec.Re { ways = 1; policy = Policy.Random; interval = t } in
      ( t,
        Attack_models.pas Attack_type.Cache_collision spec (),
        1. /. float_of_int t ))
    intervals

let nomo_reservation_sweep ~ways ~reserved =
  List.map
    (fun r ->
      let spec = Spec.Nomo { ways; policy = Policy.Random; reserved = r } in
      let pas = Attack_models.pas Attack_type.Evict_and_time spec () in
      let prepas =
        Prepas.nomo ~ways ~reserved:r ~victim_lines_in_set:ways ~k:24
          ~policy:Policy.Random
      in
      (r, pas, prepas))
    reserved

(* The five tables are independent pure computations: submit each as a
   pool task and await them in order. With live workers (a preceding
   parallel section has sized the pool) they overlap; with zero workers
   [Pool.submit] degrades to eager inline execution, so the rendered
   report is byte-identical either way. *)
let render () =
  let t3 name headers rows =
    name ^ "\n" ^ Table.render ~headers ~rows () ^ "\n"
  in
  let tables =
    [
      (fun () ->
        t3
          "Associativity sweep (SA, 512 lines): eviction gets harder, filling easier"
          [ "ways"; "Type 1 PAS"; "pre-PAS @ k=2w" ]
          (List.map
             (fun (w, p, q) ->
               [ string_of_int w; Table.fmt_prob p; Table.fmt_prob q ])
             (associativity_sweep ~ways:[ 1; 2; 4; 8; 16; 32 ])));
      (fun () ->
        t3 "Randomized cache size sweep (Newcache-style): PAS = 1/lines"
          [ "lines"; "Type 1 PAS" ]
          (List.map
             (fun (n, p) -> [ string_of_int n; Table.fmt_prob p ])
             (cache_size_sweep ~lines:[ 64; 128; 256; 512; 1024; 2048 ])));
      (fun () ->
        t3 "RF window sweep: the defence knob for reuse attacks"
          [ "half-window"; "Type 3 PAS"; "Type 2 PAS" ]
          (List.map
             (fun (w, p3, p2) ->
               [ string_of_int w; Table.fmt_prob p3; Table.fmt_prob p2 ])
             (rf_window_sweep ~windows:[ 0; 2; 8; 32; 64; 128 ])));
      (fun () ->
        t3 "RE interval sweep: PAS barely moves while throughput cost is 1/T"
          [ "interval T"; "Type 3 PAS"; "extra evictions/access" ]
          (List.map
             (fun (t, p, cost) ->
               [ string_of_int t; Table.fmt_prob p; Printf.sprintf "%.3f" cost ])
             (re_interval_sweep ~intervals:[ 1; 2; 5; 10; 50; 100 ])));
      (fun () ->
        t3 "Nomo reservation sweep (8 ways): protection vs shared capacity"
          [ "reserved"; "Type 1 PAS (spill case)"; "pre-PAS @ k=24" ]
          (List.map
             (fun (r, p, q) ->
               [ string_of_int r; Table.fmt_prob p; Table.fmt_prob q ])
             (nomo_reservation_sweep ~ways:8 ~reserved:[ 0; 1; 2; 4; 6 ])));
    ]
  in
  let futures = List.map Cachesec_runtime.Pool.submit tables in
  String.concat "" (List.map Cachesec_runtime.Pool.await futures)

let csv_rows () =
  [
    ( "sweep_associativity",
      [ "ways"; "pas_type1"; "prepas_k2w" ],
      List.map
        (fun (w, p, q) ->
          [ string_of_int w; Printf.sprintf "%.8g" p; Printf.sprintf "%.8g" q ])
        (associativity_sweep ~ways:[ 1; 2; 4; 8; 16; 32 ]) );
    ( "sweep_cache_size",
      [ "lines"; "pas_type1" ],
      List.map
        (fun (n, p) -> [ string_of_int n; Printf.sprintf "%.8g" p ])
        (cache_size_sweep ~lines:[ 64; 128; 256; 512; 1024; 2048 ]) );
    ( "sweep_rf_window",
      [ "half_window"; "pas_type3"; "pas_type2" ],
      List.map
        (fun (w, p3, p2) ->
          [ string_of_int w; Printf.sprintf "%.8g" p3; Printf.sprintf "%.8g" p2 ])
        (rf_window_sweep ~windows:[ 0; 2; 8; 32; 64; 128 ]) );
    ( "sweep_re_interval",
      [ "interval"; "pas_type3"; "eviction_cost" ],
      List.map
        (fun (t, p, c) ->
          [ string_of_int t; Printf.sprintf "%.8g" p; Printf.sprintf "%.8g" c ])
        (re_interval_sweep ~intervals:[ 1; 2; 5; 10; 50; 100 ]) );
    ( "sweep_nomo_reservation",
      [ "reserved"; "pas_type1"; "prepas_k24" ],
      List.map
        (fun (r, p, q) ->
          [ string_of_int r; Printf.sprintf "%.8g" p; Printf.sprintf "%.8g" q ])
        (nomo_reservation_sweep ~ways:8 ~reserved:[ 0; 1; 2; 4; 6 ]) );
  ]
