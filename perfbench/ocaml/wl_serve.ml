(* The [serve] workload: `pas-tool serve` started by exec in its own
   process (pooled simulations on [jobs] workers), driven over its Unix
   socket by [jobs] closed-loop connections multiplexed in this process.
   Each connection sends its next query (one per frame) only after the
   previous reply arrived. A pass is one seeded mix of memo-hit and novel
   closed-form queries and quick validate cells (see [Inputs]). *)

open Cachesec_cache
open Cachesec_analysis
module Protocol = Cachesec_serve.Protocol
module Router = Cachesec_serve.Router
module Client = Cachesec_serve.Client
module Validation = Cachesec_experiments.Validation
module Run = Cachesec_runtime.Run

let note = Bench.note

(* --- daemon lifecycle ------------------------------------------------------ *)

type daemon = { pid : int; socket : string; mutable alive : bool }

let exited d =
  d.alive
  && (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
     | 0, _ -> false
     | _ -> true
     | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true)
  && begin
       d.alive <- false;
       true
     end

(* Exec the daemon and time it until its first [ping] reply. *)
let start (b : Bench.ctx) ~socket =
  if Sys.file_exists socket then Sys.remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let t0 = Util.now_s () in
  let pid =
    Unix.create_process b.pas_tool
      [| b.pas_tool; "serve"; "--socket"; socket; "--jobs"; string_of_int b.jobs |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; socket; alive = true } in
  let rec wait () =
    if exited d then Error "daemon exited before answering ping"
    else if Util.now_s () -. t0 > 30. then Error "daemon did not answer ping within 30 s"
    else
      match Client.connect socket with
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.0005;
        wait ()
      | c -> (
        let reply = try Client.round_trip_raw c [ "ping" ] with Failure _ | Unix.Unix_error _ -> [] in
        Client.close c;
        match reply with
        | [ "ok" ] -> Ok (Util.now_s () -. t0)
        | _ -> Error "daemon answered ping wrongly")
  in
  (d, wait ())

let kill d =
  if d.alive then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.alive <- false
  end

(* Send [shutdown]; the daemon must reply ok, exit 0 and remove its
   socket file. A daemon that does not exit within 30 s is killed. *)
let stop d =
  let reply =
    try Client.with_connection d.socket (fun c -> Client.round_trip_raw c [ "shutdown" ])
    with Failure _ | Unix.Unix_error _ -> []
  in
  let t0 = Util.now_s () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now_s () -. t0 < 30. ->
      Unix.sleepf 0.002;
      reap ()
    | 0, _ ->
      kill d;
      None
    | _, status ->
      d.alive <- false;
      Some status
    | exception Unix.Unix_error _ -> None
  in
  let status = if d.alive then reap () else None in
  match (reply, status, Sys.file_exists d.socket) with
  | [ "ok" ], Some (Unix.WEXITED 0), false -> Ok ()
  | _, _, true -> Error "daemon left its socket file behind"
  | [ "ok" ], _, _ -> Error "daemon did not exit with code 0 after shutdown"
  | _ -> Error "daemon did not acknowledge shutdown"

(* --- closed-loop clients ------------------------------------------------- *)

type slot = {
  fd : Unix.file_descr;
  frames : Protocol.Frames.t;
  mutable inflight : (int * float) option;
}

type exchange = { replies : string option array; sent : float array; lat : float array }

(* Drive [queries] through [conns] connections, each with at most one
   query outstanding; [on_reply i sent received] runs as each reply
   arrives. If the daemon goes away, the queries still unanswered stay
   [None] (counted as failed) instead of hanging. *)
let exchange ?(on_reply = fun _ _ _ -> ()) d ~conns (queries : Inputs.query array) =
  let n = Array.length queries in
  let ex = { replies = Array.make n None; sent = Array.make n nan; lat = Array.make n nan } in
  let next = ref 0 and dead = ref false in
  let open_slot () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> Some { fd; frames = Protocol.Frames.create (); inflight = None }
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      None
  in
  let slots = List.filter_map (fun _ -> open_slot ()) (List.init conns Fun.id) in
  if slots = [] then dead := true;
  let send s =
    if !next < n && not !dead then begin
      let i = !next in
      incr next;
      let t = Util.now_s () in
      match Protocol.write_frame s.fd queries.(i).line with
      | () ->
        ex.sent.(i) <- t;
        s.inflight <- Some (i, t)
      | exception Unix.Unix_error _ -> dead := true
    end
  in
  List.iter send slots;
  let buf = Bytes.create 65536 in
  let receive s =
    match Unix.read s.fd buf 0 (Bytes.length buf) with
    | 0 -> dead := true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> dead := true
    | k -> (
      match Protocol.Frames.feed s.frames ~bytes:buf ~len:k with
      | Error _ -> dead := true
      | Ok payloads ->
        List.iter
          (fun p ->
            match s.inflight with
            | Some (i, t0) ->
              let t1 = Util.now_s () in
              ex.lat.(i) <- t1 -. t0;
              ex.replies.(i) <- Some p;
              on_reply i t0 t1;
              s.inflight <- None;
              send s
            | None -> dead := true)
          payloads)
  in
  while (not !dead) && List.exists (fun s -> s.inflight <> None) slots do
    let busy = List.filter (fun s -> s.inflight <> None) slots in
    match Unix.select (List.map (fun s -> s.fd) busy) [] [] 5.0 with
    | [], _, _ -> if exited d then dead := true
    | ready, _, _ -> List.iter (fun s -> if List.memq s.fd ready then receive s) busy
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun s -> Unix.close s.fd) slots;
  (ex, !dead)

(* --- output checks --------------------------------------------------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let cell_of_line line =
  match Protocol.decode_query line with
  | Ok (Protocol.Validate { spec; attack; seed; quick; _ }) -> Some (spec, attack, seed, quick)
  | _ -> None

(* The reply [Validation.cell] gives in process, encoded as the daemon
   encodes it, with its serial compute time and its exact engine
   accesses and batches (from a counting telemetry). *)
let reference_sim line =
  let module Telemetry = Cachesec_telemetry.Telemetry in
  match cell_of_line line with
  | None -> None
  | Some (spec, attack, seed, quick) ->
    let tm = Telemetry.make ~sink:Cachesec_telemetry.Sink.null () in
    let g0 = Gc.quick_stat () in
    let c, dt =
      Util.time (fun () -> Validation.cell (Run.make ~telemetry:tm ~quick ~seed ()) spec attack)
    in
    let g1 = Gc.quick_stat () in
    let cnt k = float_of_int (Option.value (List.assoc_opt k (Telemetry.counters tm)) ~default:0) in
    let reply =
      Protocol.encode_reply
        (Protocol.Validate_v
           {
             pas = c.Validation.pas;
             predicted_leak = c.predicted_leak;
             recovered = c.recovered;
             separation = c.separation;
             agrees = c.agrees;
           })
    in
    Some
      ( spec,
        reply,
        dt,
        cnt "cache.accesses",
        cnt "driver.batches",
        float_of_int c.trials,
        g1.Gc.minor_words -. g0.Gc.minor_words )

(* A validate reply is well-formed when its prediction is the closed
   form's and its verdict follows from prediction and simulation. *)
let sim_reply_ok line reply =
  match (cell_of_line line, Protocol.decode_reply reply) with
  | Some (spec, attack, _, _), Ok (Protocol.Validate_v v) ->
    let predicted = Resilience.classify spec attack = Resilience.Low in
    same_float v.pas (Attack_models.pas attack spec ())
    && v.predicted_leak = predicted
    && v.agrees = (predicted = v.recovered)
  | _ -> false

type sim_ref = {
  reply : string;
  compute_s : float;
  accesses : float;
  batches : float;
  trials : float;
  minor : float;
  generic : bool;
}

(* Check every answered query; return the number failed. Closed-form
   replies must equal an in-process [Router.route] of the same line;
   every validate reply must be well-formed and equal every other reply
   to the same line; the validate lines in [exact] must equal the
   in-process [Validation.cell]. *)
let check_replies (ck : Bench.check) ~router ~(exact : (string, sim_ref) Hashtbl.t)
    (queries : Inputs.query array)
    (ex : exchange) =
  let sims = Hashtbl.create 64 in
  let bad = ref 0 in
  Array.iteri
    (fun i (q : Inputs.query) ->
      let ok =
        match (q.kind, ex.replies.(i)) with
        | _, None -> false
        | Inputs.Stats, Some r -> String.length r > 6 && String.sub r 0 6 = "stats "
        | (Inputs.Hot | Inputs.Novel), Some r -> (
          match Router.route router q.line with Router.Now e -> e = r | _ -> false)
        | (Inputs.Sim | Inputs.Sim_again), Some r ->
          let consistent =
            match Hashtbl.find_opt sims q.line with
            | Some r' -> r = r'
            | None ->
              Hashtbl.add sims q.line r;
              true
          in
          consistent && sim_reply_ok q.line r
          && (match Hashtbl.find_opt exact q.line with Some s -> s.reply = r | None -> true)
      in
      if not ok then incr bad)
    queries;
  ck.attempted <- ck.attempted + Array.length queries;
  ck.failed <- ck.failed + !bad;
  !bad

(* --- the workload ------------------------------------------------------------ *)

let reference_pass_s = 0.55

let with_stats_polls every (qs : Inputs.query list) =
  List.concat
    (List.mapi
       (fun i q ->
         if i mod every = every - 1 then [ q; { Inputs.line = "stats"; kind = Inputs.Stats } ]
         else [ q ])
       qs)

let stats_of reply =
  match Protocol.decode_reply reply with Ok (Protocol.Stats_v kv) -> kv | _ -> []

let stat kv k = Option.value (List.assoc_opt k kv) ~default:0.

type pass_result = { queries : Inputs.query array; ex : exchange; wall : float; traced : bool }

let run (b : Bench.ctx) : Bench.outcome =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ck = Bench.new_check () in
  let socket = Filename.concat b.scratch "pas.sock" in
  let lifecycle_failed msg =
    note ck msg;
    ck.failed <- ck.failed + 1
  in
  let n = Bench.passes b ~reference_pass_s ~min:3 in
  let plan = Inputs.serve_plan b.seed ~passes:n in
  (* Set-up: daemon lifecycles on a socket of their own, spread over the
     untimed gaps between passes while the main daemon is idle; each is
     timed from exec to the first ping reply, shut down and checked. *)
  let probe_socket = Filename.concat b.scratch "probe.sock" in
  let setup =
    Setup_probe.spread
      ~total:(if b.trace then 0 else Setup_probe.per_run)
      ~passes:n
      (fun () ->
        ck.attempted <- ck.attempted + 1;
        let d, ready = start b ~socket:probe_socket in
        match ready with
        | Ok s -> (
          match stop d with
          | Ok () -> Ok s
          | Error e ->
            lifecycle_failed e;
            Error e)
        | Error e ->
          kill d;
          lifecycle_failed e;
          Error e)
  in
  ck.attempted <- ck.attempted + 1;
  let d, ready = start b ~socket in
  let results = ref [] and rss = ref nan and cpu = ref (0., 0.) and stats = ref [] in
  let main_setup_s = ref [] in
  (match ready with
  | Error e ->
    kill d;
    lifecycle_failed e;
    ck.attempted <- ck.attempted + Array.fold_left (fun a p -> a + List.length p) 0 plan.passes;
    ck.failed <- ck.failed + Array.fold_left (fun a p -> a + List.length p) 0 plan.passes
  | Ok s ->
    main_setup_s := [ s ];
    (* Warm the memo with the hot set, untimed. *)
    let warm = Array.of_list (List.map (fun line -> { Inputs.line; kind = Inputs.Hot }) plan.hot) in
    ignore (exchange d ~conns:1 warm);
    let cpu0 = Util.worker_cpu_s d.pid in
    let t_run = Util.now_s () in
    let started = Util.now_s () in
    Array.iteri
      (fun p qs ->
        (* Traced runs alternate untraced and traced passes, so both
           halves sample the same stretch of the run. *)
        let traced = b.trace && p mod 2 = 1 in
        let qs = if traced then with_stats_polls 100 qs else qs in
        let queries = Array.of_list qs in
        let out_of_time = Bench.out_of_time b ~started in
        if not out_of_time then Setup_probe.before_pass setup p;
        if out_of_time || not d.alive then
          (* Not sent: every query of the pass counts as failed. *)
          let none = Array.make (Array.length queries) None in
          results :=
            { queries; ex = { replies = none; sent = [||]; lat = [||] }; wall = nan; traced }
            :: !results
        else begin
          (* A traced pass records each query's span as its reply
             arrives, inside the timed exchange. *)
          let pass () =
            if not traced then exchange d ~conns:b.jobs queries
            else begin
              let pid = Spans.enter b.spans ~layer:"serve" "serve_pass" in
              let on_reply i sent received =
                Spans.record b.spans ~parent:pid ~req:(i + 1) ~layer:"serve"
                  ("query:" ^ Inputs.kind_name queries.(i).kind) ~start:sent ~stop:received
              in
              let r = exchange ~on_reply d ~conns:b.jobs queries in
              Spans.leave b.spans pid;
              r
            end
          in
          let (ex, dead), wall = Util.time pass in
          if dead then note ck "serve: the daemon went away mid-pass";
          results := { queries; ex; wall; traced } :: !results
        end)
      plan.passes;
    cpu := (Util.worker_cpu_s d.pid -. cpu0, Util.now_s () -. t_run);
    if d.alive then begin
      rss := Util.peak_rss_mb (Some d.pid);
      let ex, _ = exchange d ~conns:1 [| { Inputs.line = "stats"; kind = Inputs.Stats } |] in
      stats := Option.fold ~none:[] ~some:stats_of ex.replies.(0)
    end;
    match stop d with Ok () -> () | Error e -> lifecycle_failed e);
  kill d;
  let results = List.rev !results in
  (* Bit-identity checks, after the daemon is gone so they do not share
     the cores with it. The validate cells of the first pass are all
     recomputed in process. *)
  let exact = Hashtbl.create 16 in
  (match results with
  | r :: _ ->
    Array.iter
      (fun (q : Inputs.query) ->
        if q.kind = Inputs.Sim && not (Hashtbl.mem exact q.line) then
          match reference_sim q.line with
          | Some (spec, reply, compute_s, accesses, batches, trials, minor) ->
            let generic =
              (Cachesec_experiments.Setup.make spec).Cachesec_experiments.Setup.engine.Engine.run_kernel
              = Kernel.generic
            in
            Hashtbl.replace exact q.line { reply; compute_s; accesses; batches; trials; minor; generic }
          | None -> ())
      r.queries
  | [] -> ());
  let router = Router.create () in
  let bad = List.fold_left (fun a r -> a + check_replies ck ~router ~exact r.queries r.ex) 0 results in
  note ck
    (Printf.sprintf
       "serve: %d of %d replies wrong or missing; %d validate cells recomputed in process" bad
       (List.fold_left (fun a r -> a + Array.length r.queries) 0 results)
       (Hashtbl.length exact));
  (* Latencies by query class. *)
  let timed = List.filter (fun r -> Float.is_finite r.wall) results in
  let lat_ms kinds r =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i (q : Inputs.query) ->
              if List.mem q.kind kinds && Float.is_finite r.ex.lat.(i) then
                Some (r.ex.lat.(i) *. 1000.)
              else None)
            r.queries))
  in
  let closed = [ Inputs.Hot; Inputs.Novel ] in
  let closed_ms = List.concat_map (lat_ms closed) timed in
  let sim_ms = List.concat_map (lat_ms [ Inputs.Sim ]) timed in
  let med = Util.median_or_nan in
  let setup_s = setup.times @ !main_setup_s in
  let wall = med (List.map (fun r -> r.wall) timed) in
  let nq =
    float_of_int (List.fold_left (fun a r -> a + Array.length r.queries) 0 timed)
    /. float_of_int (max 1 (List.length timed))
  in
  let ctp, ctail = Util.tail_or_max closed_ms in
  let stp, stail = Util.tail_or_max ~candidates:[ 90.; 75. ] sim_ms in
  let hits = stat !stats "hits" and misses = stat !stats "misses" in
  note ck ("serve pass walls (s): " ^ Util.describe (List.map (fun r -> r.wall) timed));
  note ck
    (Printf.sprintf
       "samples: %d passes of %.0f queries, %d closed-form latencies, %d sim latencies, %d set-up \
        probes"
       (List.length timed) nq (List.length closed_ms) (List.length sim_ms)
       (List.length setup_s));
  let named =
    Bench.
      [
        m "serve_qps" (nq /. wall) "1/s";
        m "serve_closed_p50_us" (med closed_ms *. 1000.) "us";
        m "serve_closed_p90_us" (Util.p90_or_max closed_ms *. 1000.) "us";
        m (Printf.sprintf "serve_closed_p%g_us" ctp) (ctail *. 1000.) "us";
        m "serve_sim_p50_ms" (med sim_ms) "ms";
        m (Printf.sprintf "serve_sim_p%g_ms" stp) stail "ms";
        m "serve_memo_hit_share" (hits /. (hits +. misses)) "share";
      ]
  in
  let e2e =
    Bench.
      [
        m "setup_s" (med setup_s) "s";
        m "peak_rss_mb" !rss "MB";
        m "pass_wall_s" wall "s";
        m "op_p50_ms" (med closed_ms) "ms";
        m "op_p90_ms" (Util.p90_or_max closed_ms) "ms";
      ]
  in
  let outcome ~e2e ~layers = Bench.outcome ck ~e2e ~named ~layers in
  if not b.trace then outcome ~e2e ~layers:[]
  else begin
    let t = Layers.table () in
    let set = Layers.set t in
    let novel_lines =
      match results with
      | r :: _ ->
        List.filter_map
          (fun (q : Inputs.query) -> if q.kind = Inputs.Novel then Some q.line else None)
          (Array.to_list r.queries)
      | [] -> []
    in
    let enc_ns =
      Layers.common b.spans t ~seed:b.seed ~batched:true ~route_lines:(plan.hot @ novel_lines)
    in
    ignore (Layers.attack_table b.spans t ~seed:b.seed ~enc_ns);
    let plain, traced = List.partition (fun r -> not r.traced) timed in
    let wall_plain = med (List.map (fun r -> r.wall) plain) in
    let refs = Hashtbl.fold (fun _ v acc -> v :: acc) exact [] in
    let rsum f = Util.sum (List.map f refs) in
    let accesses = rsum (fun s -> s.accesses) in
    set "cache.accesses" accesses;
    set "cache.generic_access_share" (rsum (fun s -> if s.generic then s.accesses else 0.) /. accesses);
    set "cache.minor_words_per_access" (rsum (fun s -> s.minor) /. accesses);
    set "gc.minor_words" (rsum (fun s -> s.minor));
    set "gc.minor_words_per_trial" (rsum (fun s -> s.minor) /. rsum (fun s -> s.trials));
    set "runtime.batches" (rsum (fun s -> s.batches));
    let busy_total, span_s = !cpu in
    let passes = float_of_int (max 1 (List.length timed)) in
    let busy = busy_total /. passes and capacity = float_of_int b.jobs *. (span_s /. passes) in
    set "runtime.pool_busy_s" busy;
    set "runtime.utilization" (busy /. capacity);
    set "runtime.idle_s" (capacity -. busy);
    let computes = List.map (fun s -> s.compute_s) refs in
    set "experiments.cell_wall_p50_s" (med computes);
    set "experiments.cell_wall_max_s" (List.fold_left Float.max 0. computes);
    let hit_us = Hashtbl.find t "serve.route_hit_us"
    and miss_us = Hashtbl.find t "serve.route_miss_us" in
    set "serve.transport_us" ((med closed_ms *. 1000.) -. hit_us);
    set "serve.memo_hit_ratio" (hits /. (hits +. misses));
    set "serve.dedup_joins" (stat !stats "dedup_joins");
    set "serve.overloaded" (stat !stats "overloaded");
    let depth =
      List.fold_left
        (fun acc r ->
          Array.fold_left
            (fun acc (q, rep) ->
              match (q.Inputs.kind, rep) with
              | Inputs.Stats, Some rep -> Float.max acc (stat (stats_of rep) "queue_depth")
              | _ -> acc)
            acc
            (Array.map2 (fun q r -> (q, r)) r.queries r.ex.replies))
        0. traced
    in
    set "serve.queue_depth_max" depth;
    (* Sim wait: latency minus the same cell's serial compute time, for
       the first pass's cells (the ones recomputed in process). *)
    let waits =
      match timed with
      | [] -> []
      | first :: _ ->
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i (q : Inputs.query) ->
                  match (q.kind, Hashtbl.find_opt exact q.line) with
                  | Inputs.Sim, Some s when Float.is_finite first.ex.lat.(i) ->
                    Some ((first.ex.lat.(i) -. s.compute_s) *. 1000.)
                  | _ -> None)
                first.queries))
    in
    set "serve.sim_wait_ms" (med waits);
    (* One pass's latency split (seconds summed over queries). *)
    let per_pass f = Util.sum (List.map f plain) /. float_of_int (max 1 (List.length plain)) in
    let sum_lat kinds r =
      Util.sum
        (List.filteri
           (fun i _ -> List.mem r.queries.(i).Inputs.kind kinds && Float.is_finite r.ex.lat.(i))
           (Array.to_list r.ex.lat))
    in
    let count kind r =
      float_of_int
        (Array.fold_left
           (fun a (q : Inputs.query) -> if q.kind = kind then a + 1 else a)
           0 r.queries)
    in
    let compute_pass = rsum (fun s -> s.compute_s) in
    let analysis_s = per_pass (fun r -> count Inputs.Novel r *. (miss_us -. hit_us) *. 1e-6) in
    let closed_s = per_pass (sum_lat [ Inputs.Hot; Inputs.Novel ]) in
    let sim_s = per_pass (sum_lat [ Inputs.Sim; Inputs.Sim_again ]) in
    set "self.experiments_s" compute_pass;
    set "self.runtime_s" (sim_s -. compute_pass);
    set "self.analysis_s" analysis_s;
    set "self.serve_s" (closed_s -. analysis_s);
    set "self.residual_s" ((float_of_int b.jobs *. wall_plain) -. closed_s -. sim_s);
    set "trace.overhead_share" ((med (List.map (fun r -> r.wall) traced) /. wall_plain) -. 1.);
    note ck
      (Printf.sprintf "traced: %d untraced + %d traced passes, %d spans" (List.length plain)
         (List.length traced) (Spans.count b.spans));
    outcome ~e2e:[] ~layers:(Layers.emit t)
  end
