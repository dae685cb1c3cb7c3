(* Set-up time of the in-process workloads: this executable is started
   again (exec, never fork) in probe mode, does the workload's set-up and
   reports "ready" on stdout. The parent times exec to "ready", which
   covers process start, runtime and library initialisation and the
   workload's own set-up. *)

let flag = "--setup-probe"

let child_setup workload ~jobs =
  match workload with
  | "matrix" -> if jobs > 1 then Cachesec_runtime.Pool.ensure ~workers:jobs
  | "replay" ->
    ignore
      (Cachesec_cache.Factory.build (List.hd Inputs.replay_specs)
         Cachesec_cache.Factory.default_scenario
         ~rng:(Cachesec_stats.Rng.create ~seed:0))
  | w -> failwith ("no set-up probe for workload " ^ w)

(* Call first in [main]: in probe mode this never returns. *)
let child_entry () =
  match Sys.argv with
  | [| _; f; workload; jobs |] when f = flag ->
    child_setup workload ~jobs:(int_of_string jobs);
    print_endline "ready";
    exit 0
  | _ -> ()

let once ~exe ~workload ~jobs =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let t0 = Util.now_s () in
  let pid =
    Unix.create_process exe [| exe; flag; workload; string_of_int jobs |] devnull w
      Unix.stderr
  in
  Unix.close w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = Util.now_s () -. t0 in
  close_in ic;
  match (line, Unix.waitpid [] pid) with
  | Some "ready", (_, Unix.WEXITED 0) -> Ok dt
  | _ -> Error (Printf.sprintf "set-up probe for %s did not report ready" workload)

(* The number of set-up probes a run takes. Each is a few milliseconds
   of exec and start-up, so one probe's time is mostly scheduler noise;
   the median of many is not. *)
let per_run = 61

(* Probes spread evenly over a run: [before_pass s i] takes pass [i]'s
   share of [total] before it starts, so that the median samples the
   host's speed over the whole run rather than the moment it began. *)
type spread = {
  total : int;
  passes : int;
  probe : unit -> (float, string) result;
  mutable times : float list;
  mutable errors : string list;
}

let spread ?(total = per_run) ~passes probe =
  { total; passes = max 1 passes; probe; times = []; errors = [] }

let before_pass s i =
  for _ = 1 to ((i + 1) * s.total / s.passes) - (i * s.total / s.passes) do
    match s.probe () with
    | Ok t -> s.times <- t :: s.times
    | Error e -> s.errors <- e :: s.errors
  done
