(* The benchmark's own tests: metric names, the percentile helper, seeded
   input generation, and a short run of every workload (untraced and
   traced) that must pass all of its output checks.

   Usage: test_perfbench.exe PAS_TOOL *)

open Perfbench

let pas_tool = ref ""

let metric_names () =
  List.iter
    (fun (n, _, _) -> Alcotest.(check bool) n true (Util.valid_name n))
    Layers.names;
  List.iter (fun n -> Alcotest.(check bool) n true (Util.valid_name n)) Bench.e2e_names;
  List.iter
    (fun n -> Alcotest.(check bool) n false (Util.valid_name n))
    [ ""; "a b"; "x/y"; "p99%"; String.make 65 'a' ]

let percentile () =
  let xs n = List.init n float_of_int in
  let refused p n = Result.is_error (Util.percentile p (xs n)) in
  Alcotest.(check bool) "p90 of 99 samples (9 beyond)" true (refused 90. 99);
  Alcotest.(check bool) "p90 of 100 samples (10 beyond)" false (refused 90. 100);
  Alcotest.(check bool) "p99 of 999 samples" true (refused 99. 999);
  Alcotest.(check bool) "p99 of 1000 samples" false (refused 99. 1000);
  Alcotest.(check bool) "p50 of 19 samples" true (refused 50. 19);
  Alcotest.(check (result (float 0.) string)) "p90 of 0..99" (Ok 89.) (Util.percentile 90. (xs 100));
  let tail = Alcotest.(option (pair (float 0.) (float 0.))) in
  Alcotest.(check tail) "p99 admissible at 1000" (Some (99., 989.)) (Util.tail (xs 1000));
  Alcotest.(check tail) "falls back to p90 at 500" (Some (90., 449.)) (Util.tail (xs 500));
  Alcotest.(check tail) "nothing admissible at 30" None (Util.tail (xs 30));
  Alcotest.(check (float 0.)) "median even" 1.5 (Util.median [ 3.; 0.; 1.; 2. ])

let inputs () =
  let same a b = Alcotest.(check bool) "same inputs" true (a = b) in
  let differ a b = Alcotest.(check bool) "different inputs" false (a = b) in
  same (Inputs.replay_traces ~accesses:1000 7) (Inputs.replay_traces ~accesses:1000 7);
  differ (Inputs.replay_traces ~accesses:1000 7) (Inputs.replay_traces ~accesses:1000 8);
  let plan s = (Inputs.serve_plan s ~passes:3).Inputs.passes in
  same (plan 7) (plan 7);
  differ (plan 7) (plan 8);
  (* Novel closed-form lines never repeat within a run. *)
  let novel =
    Array.to_list (plan 7)
    |> List.concat
    |> List.filter_map (fun (q : Inputs.query) -> if q.kind = Inputs.Novel then Some q.line else None)
  in
  Alcotest.(check int) "novel lines distinct" (List.length novel)
    (List.length (List.sort_uniq compare novel))

let smoke workload trace () =
  let scratch = Printf.sprintf "smoke-%s-%b" workload trace in
  (try Unix.mkdir scratch 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let b =
    {
      Bench.workload;
      seed = 5;
      seconds = 1;
      trace;
      jobs = Util.nproc ();
      spans = Spans.create ~on:trace;
      pas_tool = !pas_tool;
      self_exe = Sys.executable_name;
      scratch;
      reference = Reference.empty ();
    }
  in
  let run =
    List.assoc workload
      [ ("matrix", Wl_matrix.run); ("replay", Wl_replay.run); ("serve", Wl_serve.run) ]
  in
  let o = run b in
  List.iter print_endline o.notes;
  Alcotest.(check bool) "attempted" true (o.attempted > 0);
  Alcotest.(check int) "failed" 0 o.failed;
  let names ms = List.map (fun (m : Bench.metric) -> m.name) ms in
  let finite ms = List.for_all (fun (m : Bench.metric) -> Float.is_finite m.value) ms in
  if trace then begin
    Alcotest.(check (list string))
      "per-layer names"
      (List.map (fun (n, _, _) -> n) Layers.names)
      (names o.layers);
    Alcotest.(check bool) "per-layer values finite" true (finite o.layers)
  end
  else begin
    Alcotest.(check (list string)) "end-to-end names" Bench.e2e_names (names o.e2e);
    Alcotest.(check bool) "end-to-end values finite and positive" true
      (List.for_all (fun (m : Bench.metric) -> Float.is_finite m.value && m.value > 0.) o.e2e)
  end;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists (Filename.concat scratch "pas.sock"))

let () =
  Setup_probe.child_entry ();
  match Array.to_list Sys.argv with
  | exe :: tool :: rest ->
    pas_tool := tool;
    let smoke_cases =
      List.concat_map
        (fun w ->
          [
            Alcotest.test_case (w ^ " untraced") `Slow (smoke w false);
            Alcotest.test_case (w ^ " traced") `Slow (smoke w true);
          ])
        [ "replay"; "serve"; "matrix" ]
    in
    Alcotest.run ~argv:(Array.of_list (exe :: rest)) "perfbench"
      [
        ( "units",
          [
            Alcotest.test_case "metric names" `Quick metric_names;
            Alcotest.test_case "percentile helper" `Quick percentile;
            Alcotest.test_case "seeded inputs" `Quick inputs;
          ] );
        ("smoke", smoke_cases);
      ]
  | _ ->
    prerr_endline "usage: test_perfbench.exe PAS_TOOL";
    exit 2
