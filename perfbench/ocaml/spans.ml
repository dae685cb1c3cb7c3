(* In-memory span recorder for traced runs. Spans are recorded only by
   the benchmark's own code, around its calls into the system's layers;
   with [on = false] every call is a no-op returning id 0, so untraced
   runs pay one branch per boundary. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** 0 = root *)
  req : int;  (** request / cell id shared by the spans of one unit *)
  start : float;
  mutable stop : float;
}

type t = {
  on : bool;
  mutable next : int;
  mutable spans : span list;
  open_ : (int, span) Hashtbl.t;
}

let create ~on = { on; next = 1; spans = []; open_ = Hashtbl.create 16 }
let on t = t.on

let enter t ?(parent = 0) ?(req = 0) ~layer name =
  if not t.on then 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    let s = { id; name; layer; parent; req; start = Util.now_s (); stop = nan } in
    t.spans <- s :: t.spans;
    Hashtbl.replace t.open_ id s;
    id
  end

let leave t id =
  if t.on then
    match Hashtbl.find_opt t.open_ id with
    | Some s ->
      s.stop <- Util.now_s ();
      Hashtbl.remove t.open_ id
    | None -> ()

(* A span whose times the caller measured itself. *)
let record t ?(parent = 0) ?(req = 0) ~layer name ~start ~stop =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; layer; parent; req; start; stop } :: t.spans
  end

let with_span t ?parent ?req ~layer name f =
  let id = enter t ?parent ?req ~layer name in
  match f id with
  | v ->
    leave t id;
    v
  | exception e ->
    leave t id;
    raise e

let spans t = List.rev t.spans
let count t = List.length t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc +. (b -. Float.max a reach), b))
      (0., neg_infinity) iv
  in
  total

(* Self time per layer, in first-seen order: the time during which at
   least one span of the layer was open, minus the time covered by their
   child spans. Concurrent spans of one layer (pipelined cells, queries
   on several connections) count once, as wall time. *)
let self_by_layer t =
  let closed = List.filter (fun s -> Float.is_finite s.stop) (spans t) in
  let layer_of = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace layer_of s.id s.layer) closed;
  let layers =
    List.fold_left (fun acc s -> if List.mem s.layer acc then acc else s.layer :: acc) [] closed
    |> List.rev
  in
  let union iv = covered ~lo:neg_infinity ~hi:infinity iv in
  List.map
    (fun l ->
      let own = List.filter_map (fun s -> if s.layer = l then Some (s.start, s.stop) else None) closed in
      let kids =
        List.filter_map
          (fun s -> if Hashtbl.find_opt layer_of s.parent = Some l then Some (s.start, s.stop) else None)
          closed
      in
      (l, union own -. union kids))
    layers

let write t ~path ~origin =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Util.json_object
               [
                 ("id", string_of_int s.id);
                 ("name", Util.json_string s.name);
                 ("layer", Util.json_string s.layer);
                 ("parent", string_of_int s.parent);
                 ("req", string_of_int s.req);
                 ("start_s", Util.json_float (s.start -. origin));
                 ("end_s", Util.json_float (s.stop -. origin));
               ]);
          output_char oc '\n')
        (spans t))
