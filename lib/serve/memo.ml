open Cachesec_core
open Cachesec_cache
open Cachesec_analysis

(* --- canonical keys --------------------------------------------------- *)

let policy_key p = Ckey.string (Policy.to_string p)

(* One tag per Spec constructor, every field encoded — including the
   ones the paper pins to defaults, so a future default change cannot
   silently alias old and new questions. *)
let spec_key = function
  | Spec.Sa { ways; policy } -> Ckey.tag "sa" [ Ckey.int ways; policy_key policy ]
  | Spec.Sp { ways; policy; partitions } ->
    Ckey.tag "sp" [ Ckey.int ways; policy_key policy; Ckey.int partitions ]
  | Spec.Pl { ways; policy } -> Ckey.tag "pl" [ Ckey.int ways; policy_key policy ]
  | Spec.Nomo { ways; policy; reserved } ->
    Ckey.tag "nomo" [ Ckey.int ways; policy_key policy; Ckey.int reserved ]
  | Spec.Newcache { extra_bits } -> Ckey.tag "newcache" [ Ckey.int extra_bits ]
  | Spec.Rp { ways; policy } -> Ckey.tag "rp" [ Ckey.int ways; policy_key policy ]
  | Spec.Rf { ways; policy; back; fwd } ->
    Ckey.tag "rf"
      [ Ckey.int ways; policy_key policy; Ckey.int back; Ckey.int fwd ]
  | Spec.Re { ways; policy; interval } ->
    Ckey.tag "re" [ Ckey.int ways; policy_key policy; Ckey.int interval ]
  | Spec.Noisy { ways; policy; sigma } ->
    Ckey.tag "noisy" [ Ckey.int ways; policy_key policy; Ckey.float sigma ]

let config_key (c : Config.t) =
  Ckey.tag "cfg"
    [ Ckey.int c.Config.line_bytes; Ckey.int c.Config.lines;
      Ckey.int c.Config.ways ]

let attack_key a = Ckey.tag "atk" [ Ckey.int (Attack_type.type_number a) ]

let key q =
  let k name parts = Some (Ckey.to_string (Ckey.tag name parts)) in
  match (q : Protocol.query) with
  | Ping | Stats | Shutdown -> None
  | Pas { spec; config; attack; cold = _ } ->
    k "pas" [ spec_key spec; config_key config; attack_key attack ]
  | Prepas { spec; k = steps; cold = _ } ->
    k "prepas" [ spec_key spec; Ckey.int steps ]
  | Resilience { spec; attack; cold = _ } ->
    k "resilience" [ spec_key spec; attack_key attack ]
  | Table { attack; config; cold = _ } ->
    k "table" [ attack_key attack; config_key config ]
  | Validate { spec; attack; seed; quick; cold = _ } ->
    k "validate"
      [ spec_key spec; attack_key attack; Ckey.int seed; Ckey.bool quick ]

(* --- bounded answer cache --------------------------------------------- *)

type t = {
  table : (string, string) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  max_entries : int;
}

let create ?(max_entries = 65536) () =
  { table = Hashtbl.create 256; order = Queue.create (); max_entries }

let find t k = Hashtbl.find_opt t.table k

let add t k v =
  if Hashtbl.mem t.table k then Hashtbl.replace t.table k v
  else begin
    if Hashtbl.length t.table >= t.max_entries then begin
      (* Evict the oldest insertion. Overwrites don't touch [order], so
         a queue head may already be gone from the table; skip those. *)
      let rec evict () =
        match Queue.take_opt t.order with
        | None -> ()
        | Some old ->
          if Hashtbl.mem t.table old then Hashtbl.remove t.table old
          else evict ()
      in
      evict ()
    end;
    Hashtbl.add t.table k v;
    Queue.push k t.order
  end

let size t = Hashtbl.length t.table

(* --- in-flight registry ----------------------------------------------- *)

module Inflight = struct
  type ('a, 'w) entry = {
    key : string;
    fut : 'a Cachesec_runtime.Pool.future;
    mutable waiters : 'w list;
  }

  type ('a, 'w) t = (string, ('a, 'w) entry) Hashtbl.t

  let create () = Hashtbl.create 16
  let find t k = Hashtbl.find_opt t k

  let add t ~key ~fut w =
    assert (not (Hashtbl.mem t key));
    let e = { key; fut; waiters = [ w ] } in
    Hashtbl.add t key e;
    e

  let join e w = e.waiters <- w :: e.waiters
  let remove t k = Hashtbl.remove t k
  let count t = Hashtbl.length t
  let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t []
end
