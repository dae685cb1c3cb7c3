(** Telemetry events — the vocabulary every sink consumes.

    All [t_s]/[dur_s]/[busy_s] fields are seconds relative to the owning
    {!Telemetry.t}'s creation instant, so exports are host-epoch
    independent. Span and batch events reference spans by integer id
    ([0] = no parent / root). *)

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
      index : int;  (** work-unit index in the scheduler's index space *)
      total : int;  (** size of that index space *)
      domain : int;  (** worker (domain) slot that claimed the unit *)
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
      (** per-worker utilisation: wall-clock spent inside work units and
          how many units the worker claimed (emitted at join) *)
  | Gauge of { span : int; name : string; value : float; t_s : float }
  | Counter_total of { name : string; value : int }
      (** merged value of a named counter (emitted at context close) *)

val to_row : t -> string
(** The event as one [telemetry/v1] row: ["ev"] (the kind tag) first,
    then the kind's fields; times with 6 decimals. *)

val of_row : Flat_json.row -> (t, Flat_json.error) result
(** Inverse of {!to_row}, by key: any key order parses. An unknown
    ["ev"] tag is [Bad_value "ev"]. *)
