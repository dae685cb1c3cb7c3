(* What every workload receives and returns. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  jobs : int;  (** worker domains: the host's core count *)
  spans : Spans.t;
  pas_tool : string;  (** the pas-tool executable, for the serve workload *)
  self_exe : string;  (** this executable, re-executed for setup probes *)
  scratch : string;  (** a directory for the socket and the trace file *)
  reference : Reference.t;
}

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** the contract's end-to-end metrics *)
  named : metric list;  (** the same results under the workload's own names *)
  layers : metric list;  (** per-layer metrics (traced runs) *)
  notes : string list;  (** how checks went, which percentile was used, ... *)
}

let m name value unit_ = { name; value; unit_ }

(* Operations attempted and failed by a run's output checks, and what
   the checks found. *)
type check = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let new_check () = { attempted = 0; failed = 0; notes = [] }
let note ck s = ck.notes <- s :: ck.notes

let outcome ck ~e2e ~named ~layers =
  { attempted = ck.attempted; failed = ck.failed; e2e; named; layers; notes = List.rev ck.notes }

(* The end-to-end metrics every untraced run reports, in order. *)
let e2e_names = [ "setup_s"; "peak_rss_mb"; "pass_wall_s"; "op_p50_ms"; "op_p90_ms" ]

(* The number of passes a run makes: enough to fill [seconds] on the
   reference host (2 cores), so the work of a run is fixed by its length
   and a faster program does the same work in less time. *)
let passes ctx ~reference_pass_s ~min =
  max min (int_of_float (Float.round (float_of_int ctx.seconds /. reference_pass_s)))

(* Passes also stop once twice the run length has gone by, so a much
   slower build still ends in time. *)
let out_of_time ctx ~started = Util.now_s () -. started > 2. *. float_of_int ctx.seconds

let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt
