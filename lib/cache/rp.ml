open Cachesec_stats

(* The per-pid permutation tables (and their single-entry memo) live in
   [Kernel_rp.map] so the access kernels and this generic path
   share one state record — a stale memo in either would silently fork
   the mappings. *)
type t = { b : Backing.t; policy : Policy.t; map : Kernel_rp.map }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy; map = Kernel_rp.create_map () }

let config t = t.b.Backing.cfg
let sets t = Config.sets t.b.Backing.cfg
let table_of t pid = Kernel_rp.table_of t.map ~sets:(sets t) pid
let table t ~pid = Array.copy (table_of t pid)
let set_identity t ~pid = Kernel_rp.set_identity t.map ~sets:(sets t) ~pid
let physical_set t ~pid addr = (table_of t pid).(Backing.set_of t.b addr)

let access t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = Backing.tick b in
  let logical = Backing.set_of b addr in
  let set = (table_of t pid).(logical) in
  (* PID feature: the tag array conceptually stores the owning context,
     so the probe requires the owner to match too. *)
  let i = Backing.find_tag_owned b ~set ~tag:addr ~owner:pid in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Outcome.hit
    end
    else begin
      let w = b.cfg.Config.ways in
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:w
      in
      if s.Slab.tags.(way) < 0 || s.Slab.owners.(way) = pid then
        (* Internal miss: replace in place. *)
        Backing.install b t.policy way ~addr ~pid ~seq
      else begin
        (* External miss: random set, random line there, swap mappings. *)
        let s' = Rng.int b.rng b.Backing.sets in
        let way' = Backing.base_of_set b ~set:s' + Rng.int b.rng w in
        let outcome = Backing.install b t.policy way' ~addr ~pid ~seq in
        Kernel_rp.swap_mapping t.map ~sets:(sets t) pid ~logical
          ~target_set:s';
        outcome
      end
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let engine ?kernel t =
  let e =
    Backing.engine ?kernel t.b
      ~kernels:
        ( "rp-" ^ Policy.to_string t.policy,
          Kernel_rp.access t.map t.policy t.b,
          Kernel_rp.run t.map t.policy t.b )
      ~name:(Printf.sprintf "rp-%d-way" (config t).Config.ways)
      (access t)
  in
  (* PID feature: lookups go through the pid's own mapping and require
     the pid's own copy. *)
  let find ~pid addr =
    Backing.find_tag_owned t.b ~set:(physical_set t ~pid addr) ~tag:addr
      ~owner:pid
  in
  {
    e with
    Engine.peek = (fun ~pid addr -> find ~pid addr >= 0);
    flush_line = (fun ~pid addr -> Backing.flush_at t.b ~pid (find ~pid addr));
  }
