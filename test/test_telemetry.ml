(* The telemetry subsystem's contract:

   - spans nest (parent ids, LIFO close, non-negative durations);
   - counters merged across scheduler workers are bit-identical for
     jobs:1 and jobs:N (timings are the only thing allowed to vary);
   - the JSON sink round-trips through its own reader under the
     versioned telemetry/v1 schema;
   - the null context allocates nothing (the hot-path guarantee the
     zero-alloc engine gates rely on). *)

open Cachesec_telemetry
open Cachesec_runtime
open Cachesec_cache
open Cachesec_experiments

let with_memory_tm f =
  let sink, events = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let r = f tm in
  Telemetry.close tm;
  (r, events ())

(* --- span nesting ---------------------------------------------------- *)

let test_span_nesting () =
  let (outer_id, inner_id), events =
    with_memory_tm @@ fun tm ->
    Telemetry.with_span tm "outer" @@ fun outer ->
    let inner_id =
      Telemetry.with_span tm ~parent:outer "inner" @@ fun inner ->
      Telemetry.span_id inner
    in
    (Telemetry.span_id outer, inner_id)
  in
  Alcotest.(check bool) "ids distinct" true (outer_id <> inner_id);
  Alcotest.(check bool) "ids positive" true (outer_id > 0 && inner_id > 0);
  let starts =
    List.filter_map
      (function
        | Event.Span_start { id; parent; _ } -> Some (id, parent)
        | _ -> None)
      events
  in
  Alcotest.(check (list (pair int int)))
    "outer rooted, inner under outer"
    [ (outer_id, 0); (inner_id, outer_id) ]
    starts;
  let ends =
    List.filter_map
      (function
        | Event.Span_end { id; dur_s; _ } -> Some (id, dur_s)
        | _ -> None)
      events
  in
  (* LIFO close: inner ends before outer. *)
  Alcotest.(check (list int))
    "LIFO close order" [ inner_id; outer_id ] (List.map fst ends);
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "non-negative duration" true (d >= 0.))
    ends

let test_with_span_closes_on_exception () =
  let (), events =
    with_memory_tm @@ fun tm ->
    try Telemetry.with_span tm "bang" (fun _ -> failwith "boom")
    with Failure _ -> ()
  in
  let ends =
    List.filter (function Event.Span_end _ -> true | _ -> false) events
  in
  Alcotest.(check int) "span closed despite exception" 1 (List.length ends)

(* --- scheduler batch events ------------------------------------------ *)

let test_scheduler_batch_events () =
  let n = 12 in
  let results, events =
    with_memory_tm @@ fun tm ->
    Telemetry.with_span tm "work" @@ fun sp ->
    Scheduler.map_array ~jobs:3 ~tm ~span:sp (fun i -> i * i)
      (Array.init n (fun i -> i))
  in
  Alcotest.(check (array int))
    "results unchanged by instrumentation"
    (Array.init n (fun i -> i * i))
    results;
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one Batch_start per unit" n
    (count (function Event.Batch_start _ -> true | _ -> false));
  Alcotest.(check int) "one Batch_end per unit" n
    (count (function Event.Batch_end _ -> true | _ -> false));
  let busy_units =
    List.filter_map
      (function Event.Domain_busy { units; _ } -> Some units | _ -> None)
      events
  in
  Alcotest.(check bool) "at least one worker summary" true (busy_units <> []);
  Alcotest.(check int) "workers claimed every unit exactly once" n
    (List.fold_left ( + ) 0 busy_units)

(* --- counter merge: jobs:1 vs jobs:N --------------------------------- *)

let counters_for ~jobs =
  let sink, _ = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let ctx = Run.with_telemetry tm (Run.make ~jobs ~seed:42 ()) in
  let cfg =
    { Cachesec_attacks.Flush_reload.default_config with
      Cachesec_attacks.Flush_reload.trials = 600 (* spans 3 batches of 256 *)
    }
  in
  ignore Driver.(await (submit ctx (flush_reload Spec.paper_sa cfg)));
  ignore
    Driver.(
      await
        (submit ctx (cleaning_game Spec.paper_sa ~accesses:16 ~samples:600)));
  let cs = Telemetry.counters tm in
  Telemetry.close tm;
  cs

let test_counter_merge_jobs_invariant () =
  let c1 = counters_for ~jobs:1 in
  let c4 = counters_for ~jobs:4 in
  Alcotest.(check (list (pair string int)))
    "merged counters identical for jobs:1 and jobs:4" c1 c4;
  (* And they actually counted the engine traffic. *)
  Alcotest.(check bool) "cache.accesses present and positive" true
    (match List.assoc_opt "cache.accesses" c1 with
    | Some v -> v > 0
    | None -> false);
  Alcotest.(check int) "driver.trials totalled" 1200
    (Option.value ~default:0 (List.assoc_opt "driver.trials" c1))

let test_domain_local_counts_merge () =
  let (), _ =
    with_memory_tm @@ fun tm ->
    (* Counts from several scheduler workers land in per-domain tables;
       the merged view must be the plain sum. *)
    ignore
      (Scheduler.map_array ~jobs:4
         (fun i ->
           Telemetry.count tm "units" 1;
           Telemetry.count tm "weighted" i;
           i)
         (Array.init 32 (fun i -> i)));
    Alcotest.(check (list (pair string int)))
      "name-sorted sums"
      [ ("units", 32); ("weighted", 32 * 31 / 2) ]
      (Telemetry.counters tm)
  in
  ()

(* --- campaign span names ----------------------------------------------- *)

(* TELEMETRY files and per-campaign attribution key on these names: a
   fixed run's span is "<campaign>:<cache>", an adaptive run of the same
   campaign appends ":adaptive". *)
let test_campaign_span_names () =
  let cfg =
    { Cachesec_attacks.Flush_reload.default_config with
      Cachesec_attacks.Flush_reload.trials = 300
    }
  in
  let campaign = Driver.flush_reload Spec.paper_sa cfg in
  let run submit =
    snd
      (with_memory_tm @@ fun tm ->
       ignore
         (Driver.await
            (submit (Run.with_telemetry tm (Run.make ~seed:42 ())) campaign)))
  in
  let fixed = run Driver.submit in
  let target =
    Cachesec_stats.Sequential.target ~confidence:0.95 ~min_trials:50
      ~half_width:0.05 ~max_trials:600 ()
  in
  let adaptive = run (Driver.submit_adaptive ~target) in
  let span_names events =
    List.filter_map
      (function Event.Span_start { name; _ } -> Some name | _ -> None)
      events
  in
  (* The gauges attributed to the (single) campaign span. *)
  let gauges_of events =
    match
      List.find_map
        (function Event.Span_start { id; _ } -> Some id | _ -> None)
        events
    with
    | None -> []
    | Some id ->
      List.filter_map
        (function
          | Event.Gauge { span; name; _ } when span = id -> Some name
          | _ -> None)
        events
  in
  let counted name events =
    List.exists
      (function Event.Counter_total { name = n; _ } -> n = name | _ -> false)
      events
  in
  Alcotest.(check (list string)) "fixed span" [ "flush-reload:sa" ]
    (span_names fixed);
  Alcotest.(check (list string)) "fixed span gauges" [ "trials" ]
    (gauges_of fixed);
  Alcotest.(check (list string)) "adaptive span"
    [ "flush-reload:sa:adaptive" ] (span_names adaptive);
  Alcotest.(check (list string)) "adaptive span gauges"
    [ "trials_cap"; "trials" ] (gauges_of adaptive);
  (* The Bernoulli campaigns name their spans the same way. *)
  let events_of submit =
    snd
      (with_memory_tm @@ fun tm ->
       ignore
         (Driver.await (submit (Run.with_telemetry tm (Run.make ~seed:42 ())))))
  in
  let game =
    events_of (fun ctx ->
        Driver.submit ctx
          (Driver.cleaning_game Spec.paper_sa ~accesses:16 ~samples:300))
  in
  let edge =
    events_of (fun ctx ->
        Edge_measure.eviction_stage ctx ~samples:300 Spec.paper_sa)
  in
  Alcotest.(check (list string)) "cleaning-game span" [ "cleaning-game:sa" ]
    (span_names game);
  Alcotest.(check (list string)) "cleaning-game span gauges" [ "trials" ]
    (gauges_of game);
  Alcotest.(check (list string)) "edge stage span" [ "edge-eviction:sa" ]
    (span_names edge);
  Alcotest.(check (list string)) "edge stage span gauges" [ "trials" ]
    (gauges_of edge);
  Alcotest.(check bool) "fixed run saves nothing" false
    (counted "driver.trials_saved" fixed);
  Alcotest.(check bool) "adaptive run counts trials saved" true
    (counted "driver.trials_saved" adaptive)

(* --- JSON sink round-trip -------------------------------------------- *)

let sample_events =
  [
    Event.Span_start { id = 1; parent = 0; name = "campaign"; t_s = 0.5 };
    Event.Gauge { span = 1; name = "trials"; value = 5000.; t_s = 0.5 };
    Event.Batch_start { span = 1; index = 0; total = 2; domain = 0; t_s = 0.5 };
    Event.Batch_end
      { span = 1; index = 0; total = 2; domain = 0; t_s = 0.75; dur_s = 0.25 };
    Event.Domain_busy { span = 1; domain = 0; busy_s = 0.25; units = 1 };
    Event.Span_end
      { id = 1; parent = 0; name = "campaign"; t_s = 1.25; dur_s = 0.75 };
    Event.Counter_total { name = "cache.accesses"; value = 123456 };
  ]

let event_of_line line = Result.bind (Flat_json.parse_row line) Event.of_row

let test_event_line_round_trip () =
  let odd_name =
    Event.Gauge
      { span = 2; name = "q\"uote\\ tab\t nl\n \x01 caf\xc3\xa9"; value = -1.5; t_s = 0. }
  in
  List.iter
    (fun e ->
      let line = Event.to_row e in
      match event_of_line line with
      | Ok e' -> Alcotest.(check bool) ("round-trips: " ^ line) true (e = e')
      | Error _ -> Alcotest.failf "unparseable line: %s" line)
    (odd_name :: sample_events);
  (* Key order is not part of the format: a row written by hand with its
     keys shuffled, extra whitespace and a trailing comma is the same
     event. *)
  Alcotest.(check bool) "reordered keys" true
    (event_of_line
       "  { \"t\":0.75,\"dur\": 0.25, \"domain\": 0, \"total\": 2, \
        \"index\": 0, \"span\": 1, \"ev\": \"batch_end\" },  "
    = Ok (List.nth sample_events 3));
  Alcotest.(check bool) "non-event lines rejected" true
    (Result.is_error (event_of_line "{\"schema\": \"telemetry/v1\"}")
    && event_of_line "]" = Error Flat_json.Not_an_object
    && event_of_line "{\"ev\": \"nope\", \"name\": \"x\"}"
       = Error (Flat_json.Bad_value "ev")
    && event_of_line "{\"ev\": \"counter\", \"name\": \"x\"}"
       = Error (Flat_json.Missing "value"))

(* The telemetry/v1 bytes of [sample_events] as the Scanf-era writer
   produced them: the format is unchanged, byte for byte. *)
let sample_document =
  {|{
  "schema": "telemetry/v1",
  "run": "test",
  "events": [
    {"ev": "span_start", "id": 1, "parent": 0, "name": "campaign", "t": 0.500000},
    {"ev": "gauge", "span": 1, "name": "trials", "value": 5000.000000, "t": 0.500000},
    {"ev": "batch_start", "span": 1, "index": 0, "total": 2, "domain": 0, "t": 0.500000},
    {"ev": "batch_end", "span": 1, "index": 0, "total": 2, "domain": 0, "t": 0.750000, "dur": 0.250000},
    {"ev": "domain_busy", "span": 1, "domain": 0, "busy": 0.250000, "units": 1},
    {"ev": "span_end", "id": 1, "parent": 0, "name": "campaign", "t": 1.250000, "dur": 0.750000},
    {"ev": "counter", "name": "cache.accesses", "value": 123456}
  ]
}
|}

let test_json_sink_round_trip () =
  let path = Filename.temp_file "telemetry" ".json" in
  let tm = Telemetry.make ~sink:(Sink.json ~run:"test" ~path ()) () in
  Telemetry.with_span tm "outer" (fun sp ->
      Telemetry.gauge tm ~span:sp "trials" 42.;
      Telemetry.count tm "cache.accesses" 7);
  Telemetry.close tm;
  (match Sink.read_json ~path with
  | None -> Alcotest.fail "written file did not parse"
  | Some (schema, run, events) ->
    Alcotest.(check string) "schema version" Sink.schema_version schema;
    Alcotest.(check string) "run name" "test" run;
    let names =
      List.filter_map
        (function
          | Event.Span_start { name; _ } -> Some ("start:" ^ name)
          | Event.Span_end { name; _ } -> Some ("end:" ^ name)
          | Event.Gauge { name; _ } -> Some ("gauge:" ^ name)
          | Event.Counter_total { name; value } ->
            Some (Printf.sprintf "counter:%s=%d" name value)
          | _ -> None)
        events
    in
    Alcotest.(check (list string))
      "event stream (counter totals flushed at close)"
      [ "start:outer"; "gauge:trials"; "end:outer";
        "counter:cache.accesses=7" ]
      names);
  (* Byte-exact document for a fixed event list, and back. *)
  let sink = Sink.json ~run:"test" ~path () in
  List.iter sink.Sink.emit sample_events;
  sink.Sink.close ();
  Alcotest.(check string) "telemetry/v1 bytes" sample_document
    (In_channel.with_open_text path In_channel.input_all);
  Alcotest.(check bool) "fixed events read back" true
    (Sink.read_json ~path = Some ("telemetry/v1", "test", sample_events));
  (* A truncated tail (a run killed mid-write) keeps every complete
     event; a file without a schema is not a telemetry file. *)
  let cut = String.length sample_document - 40 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.sub sample_document 0 cut));
  Alcotest.(check bool) "truncated file keeps complete events" true
    (Sink.read_json ~path
    = Some ("telemetry/v1", "test", List.filteri (fun i _ -> i < 6) sample_events));
  Out_channel.with_open_text path (fun oc -> output_string oc "garbage\n{\n");
  Alcotest.(check bool) "no schema, no document" true
    (Sink.read_json ~path = None);
  Sys.remove path;
  Alcotest.(check bool) "absent file" true (Sink.read_json ~path = None)

(* --- Flat_json reader: total on untrusted bytes ---------------------- *)

(* Arbitrary bytes, biased towards the format's own punctuation so the
   parser gets deep: the result is a row or a named error, never an
   exception, and a parsed row decodes (or not) without raising. *)
let flat_json_arbitrary_bytes =
  let json_ish =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ '{'; '}'; '"'; ':'; ','; '\\'; 'u'; '0'; 'e';
                                 'v'; ' '; '['; '-'; '.'; '\n' ])
        (0 -- 40))
  in
  QCheck.Test.make ~count:2000 ~name:"arbitrary bytes: row or named error"
    QCheck.(make ~print:String.escaped Gen.(oneof [ json_ish; string ]))
    (fun line ->
      match Flat_json.parse_row line with
      | Ok r ->
        ignore (Event.of_row r);
        ignore (Throughput.of_row r);
        true
      | Error (Flat_json.Not_an_object | Flat_json.Malformed _) -> true
      | Error (Flat_json.Missing _ | Flat_json.Bad_value _) -> false)

(* A written row reads back as exactly its fields (keys and strings of
   arbitrary bytes), and every strict prefix of it — a truncated file —
   is an error, never a different row. *)
let flat_json_truncation =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 10) in
  let value =
    oneof
      [
        map (fun s -> (Flat_json.str s, Flat_json.String s)) bytes;
        map (fun i -> (Flat_json.int i, Flat_json.Token (string_of_int i))) int;
        map
          (fun k ->
            let x = Flat_json.fixed 6 (float_of_int k /. 64.) in
            (x, Flat_json.Token x))
          int;
      ]
  in
  let fields = list_size (0 -- 5) (pair bytes value) in
  QCheck.Test.make ~count:500 ~name:"truncated row: error, never another row"
    (QCheck.make
       ~print:(fun fs ->
         String.escaped (Flat_json.row (List.map (fun (k, (v, _)) -> (k, v)) fs)))
       fields)
    (fun fs ->
      let line = Flat_json.row (List.map (fun (k, (v, _)) -> (k, v)) fs) in
      Flat_json.parse_row line = Ok (List.map (fun (k, (_, v)) -> (k, v)) fs)
      && List.for_all
           (fun i ->
             match Flat_json.parse_row (String.sub line 0 i) with
             | Error (Flat_json.Not_an_object | Flat_json.Malformed _) -> true
             | Ok _ | Error _ -> false)
           (List.init (String.length line) Fun.id))

let test_default_json_path () =
  Alcotest.(check string)
    "conventional path" "results/TELEMETRY_bench.json"
    (Sink.default_json_path ~run:"bench")

let test_progress_sink_smoke () =
  (* The human sink must tolerate a full event stream without raising;
     content is for eyeballs, not assertions. *)
  let path = Filename.temp_file "progress" ".txt" in
  let oc = open_out path in
  let tm = Telemetry.make ~sink:(Sink.progress ~out:oc ()) () in
  Telemetry.with_span tm "outer" (fun sp ->
      Telemetry.gauge tm ~span:sp "trials" 10.;
      ignore
        (Scheduler.map_array ~jobs:2 ~tm ~span:sp (fun i -> i)
           (Array.init 20 (fun i -> i))));
  Telemetry.count tm "cache.accesses" 5;
  Telemetry.close tm;
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "wrote something human-readable" true (len > 0)

(* --- null context is free -------------------------------------------- *)

let test_null_is_null () =
  Alcotest.(check bool) "null is null" true (Telemetry.is_null Telemetry.null);
  let sink, _ = Sink.memory () in
  Alcotest.(check bool) "active is not null" false
    (Telemetry.is_null (Telemetry.make ~sink ()));
  Alcotest.(check int) "null span id" 0 (Telemetry.span_id Telemetry.null_span)

let test_null_context_zero_alloc () =
  let tm = Telemetry.null in
  let ops () =
    for _ = 1 to 10_000 do
      let sp = Telemetry.span tm "name" in
      Telemetry.count tm "counter" 1;
      Telemetry.batch_start tm ~span:sp ~index:0 ~total:1 ~domain:0 ~t_s:0.;
      Telemetry.batch_end tm ~span:sp ~index:0 ~total:1 ~domain:0 ~start_s:0.;
      Telemetry.close_span tm sp
    done
  in
  ops ();
  (* Warmed up; now the measured pass. *)
  let before = Gc.minor_words () in
  ops ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.))
    "null telemetry allocates nothing" 0. words

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "close on exception" `Quick
            test_with_span_closes_on_exception;
          Alcotest.test_case "scheduler batch events" `Quick
            test_scheduler_batch_events;
          Alcotest.test_case "campaign span names" `Quick
            test_campaign_span_names;
        ] );
      ( "counters",
        [
          Alcotest.test_case "merge jobs-invariant" `Quick
            test_counter_merge_jobs_invariant;
          Alcotest.test_case "domain-local merge" `Quick
            test_domain_local_counts_merge;
        ] );
      ( "json",
        [
          Alcotest.test_case "event line round-trip" `Quick
            test_event_line_round_trip;
          Alcotest.test_case "sink round-trip" `Quick test_json_sink_round_trip;
          Alcotest.test_case "default path" `Quick test_default_json_path;
          Alcotest.test_case "progress sink smoke" `Quick
            test_progress_sink_smoke;
        ] );
      ( "flat_json",
        [
          QCheck_alcotest.to_alcotest flat_json_arbitrary_bytes;
          QCheck_alcotest.to_alcotest flat_json_truncation;
        ] );
      ( "null",
        [
          Alcotest.test_case "is_null" `Quick test_null_is_null;
          Alcotest.test_case "zero allocation" `Quick
            test_null_context_zero_alloc;
        ] );
    ]
