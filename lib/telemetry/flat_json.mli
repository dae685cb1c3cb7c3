(** The flat-JSON record format behind every [BENCH_*.json] and
    [telemetry/v1] file, written and read in this one module.

    A document is a JSON object: a ["schema"] string, a few header
    fields, then one array holding one flat object (a {e row}) per line.
    The writer keeps each caller's key order, spacing and number
    precision. The reader is key-based: a row's keys may come in any
    order, with any whitespace and a trailing comma, so the order in
    which a writer emits keys is not part of the format. *)

(** {1 Rows} *)

type value =
  | String of string  (** a JSON string, unescaped *)
  | Token of string  (** a bare value (number or literal), verbatim *)

type row = (string * value) list
(** A flat object's fields, in file order. *)

type error =
  | Not_an_object  (** the text does not open with [{] *)
  | Malformed of int  (** byte offset where the row stops parsing:
      truncation, nesting, a stray character *)
  | Missing of string  (** a required key is absent *)
  | Bad_value of string  (** a key holds the wrong kind of value *)

(** {1 Writing} *)

val str : string -> string
(** A JSON string literal (quotes, backslashes and control characters
    escaped; other bytes verbatim). *)

val int : int -> string
val fixed : int -> float -> string
(** [fixed digits x]: [x] with exactly [digits] decimals ([%.*f]). *)

val row : (string * string) list -> string
(** [{"k1": v1, "k2": v2}] from (key, encoded value) pairs, in order. *)

val write :
  path:string -> schema:string -> header:(string * string) list -> array:string ->
  string list -> unit
(** Write a document: ["schema"], then each header (key, encoded value)
    on its own line, then [array] holding the given {!row} strings, one
    per line. Missing parent directories of [path] are created. *)

(** {1 Reading} *)

val parse_row : string -> (row, error) result
(** Parse one row. Surrounding whitespace and one trailing comma are
    accepted; anything else that is not exactly one flat object is an
    [Error]. Never raises. *)

val decode : (row -> 'a) -> row -> ('a, error) result
(** [decode f r] runs [f], whose {!get_str}/{!get_int}/{!get_float}
    calls turn an absent or ill-typed key into [Error]. *)

val get_str : row -> string -> string
val get_int : row -> string -> int
val get_float : row -> string -> float
(** Required fields. Call them only inside {!decode}, which catches
    their failure. A float field accepts an integer token. *)

val bad_value : string -> 'a
(** Inside {!decode}: reject the row with [Bad_value key], e.g. for an
    unknown tag. *)

val default : 'a -> (row -> string -> 'a) -> row -> string -> 'a
(** [default d get r k]: [d] when [k] is absent, else [get r k] — how a
    newer reader fills keys an older file never wrote. *)

type doc = {
  schema : string option;
  header : row;  (** header fields other than the schema *)
  rows : (row, error) result list;  (** every row line, in file order *)
}

val read : path:string -> doc option
(** [None] when the file cannot be read. *)

val read_rows : path:string -> (row -> ('a, error) result) -> 'a list
(** The rows of [path] that [of_row] accepts, in file order; [[]] when
    the file cannot be read. Rows that fail are skipped. *)
