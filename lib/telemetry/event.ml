(* Telemetry events: the wire format shared by every sink.

   Times are seconds relative to the owning context's creation
   ([Telemetry.make]), so the JSON export is small, diffable and
   independent of the host's wall-clock epoch.

   Each event is one flat row of the [telemetry/v1] document, tagged by
   its ["ev"] key; {!Flat_json} owns the encoding. *)

type t =
  | Span_start of { id : int; parent : int; name : string; t_s : float }
  | Span_end of {
      id : int;
      parent : int;
      name : string;
      t_s : float;
      dur_s : float;
    }
  | Batch_start of {
      span : int;
      index : int;
      total : int;
      domain : int;
      t_s : float;
    }
  | Batch_end of {
      span : int;
      index : int;
      total : int;
      domain : int;
      t_s : float;
      dur_s : float;
    }
  | Domain_busy of { span : int; domain : int; busy_s : float; units : int }
  | Gauge of { span : int; name : string; value : float; t_s : float }
  | Counter_total of { name : string; value : int }

let to_row e =
  let open Flat_json in
  let ev tag fields = row (("ev", str tag) :: fields) in
  match e with
  | Span_start { id; parent; name; t_s } ->
    ev "span_start"
      [ ("id", int id); ("parent", int parent); ("name", str name);
        ("t", fixed 6 t_s) ]
  | Span_end { id; parent; name; t_s; dur_s } ->
    ev "span_end"
      [ ("id", int id); ("parent", int parent); ("name", str name);
        ("t", fixed 6 t_s); ("dur", fixed 6 dur_s) ]
  | Batch_start { span; index; total; domain; t_s } ->
    ev "batch_start"
      [ ("span", int span); ("index", int index); ("total", int total);
        ("domain", int domain); ("t", fixed 6 t_s) ]
  | Batch_end { span; index; total; domain; t_s; dur_s } ->
    ev "batch_end"
      [ ("span", int span); ("index", int index); ("total", int total);
        ("domain", int domain); ("t", fixed 6 t_s); ("dur", fixed 6 dur_s) ]
  | Domain_busy { span; domain; busy_s; units } ->
    ev "domain_busy"
      [ ("span", int span); ("domain", int domain); ("busy", fixed 6 busy_s);
        ("units", int units) ]
  | Gauge { span; name; value; t_s } ->
    ev "gauge"
      [ ("span", int span); ("name", str name); ("value", fixed 6 value);
        ("t", fixed 6 t_s) ]
  | Counter_total { name; value } ->
    ev "counter" [ ("name", str name); ("value", int value) ]

let of_row =
  Flat_json.decode (fun r ->
      let open Flat_json in
      let i = get_int r and f = get_float r and s = get_str r in
      match s "ev" with
      | "span_start" ->
        Span_start { id = i "id"; parent = i "parent"; name = s "name"; t_s = f "t" }
      | "span_end" ->
        Span_end
          { id = i "id"; parent = i "parent"; name = s "name"; t_s = f "t";
            dur_s = f "dur" }
      | "batch_start" ->
        Batch_start
          { span = i "span"; index = i "index"; total = i "total";
            domain = i "domain"; t_s = f "t" }
      | "batch_end" ->
        Batch_end
          { span = i "span"; index = i "index"; total = i "total";
            domain = i "domain"; t_s = f "t"; dur_s = f "dur" }
      | "domain_busy" ->
        Domain_busy
          { span = i "span"; domain = i "domain"; busy_s = f "busy";
            units = i "units" }
      | "gauge" ->
        Gauge { span = i "span"; name = s "name"; value = f "value"; t_s = f "t" }
      | "counter" -> Counter_total { name = s "name"; value = i "value" }
      | _ -> bad_value "ev")
