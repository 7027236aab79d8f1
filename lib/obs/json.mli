(** Escape-correct JSON emission, and a strict reader for it.

    Every machine-readable artifact this repository produces — fault
    campaign reports, traces, metrics, coverage, triage bundles, worker
    pool result lines — goes through this one printer, so escaping is
    right exactly once.  {!parse} is the inverse, added for the two
    places the repository reads its {e own} JSON back: the process pool
    ({!Dfv_par.Pool}) aggregating per-job results over sockets, and
    the artifact loader behind [dfv validate] and [dfv report].  The
    field accessors below are the one set every decoder uses, so their
    error texts are the same everywhere. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values are emitted as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape_to_buffer : Buffer.t -> string -> unit
(** Append the JSON string literal (including the quotes) for [s]. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val envelope : schema:string -> version:int -> (string * t) list -> t
(** The common envelope every dfv JSON artifact agrees on:
    [{"schema": schema, "version": version, ...fields}]. *)

val write_file : string -> t -> unit
(** Write the value (newline-terminated) to [path]. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed).
    Strict: trailing garbage, unterminated strings, bad escapes and
    malformed numbers are errors, not best-effort recoveries —
    [parse (to_string v)] reconstructs [v] exactly for every [v] whose
    floats are finite (non-finite floats print as [null]). *)

val field : string -> t -> t option
(** [field name v] is the value of field [name] when [v] is an [Obj]
    carrying it, [None] otherwise. *)

val string_field : string -> t -> (string, string) result
(** [string_field name v] is the [String] field [name] of [v]; [Error
    "missing string field \"name\""] when it is absent or not a string. *)

val int_field : string -> t -> (int, string) result
(** As {!string_field} for an [Int] field ([missing int field ...]). *)

val number_field : string -> t -> (float, string) result
(** As {!string_field} for a [Float] or [Int] field, read as a float
    ([missing number field ...]). *)

val list_field : string -> t -> (t list, string) result
(** As {!string_field} for a [List] field ([missing list field ...]). *)

val each : ('a -> (unit, string) result) -> 'a list -> (unit, string) result
(** The first error [f] reports over the list, in order — how the
    schema checks walk a document's rows. *)

val has :
  (string -> t -> ('a, string) result) -> string list -> t ->
  (unit, string) result
(** [has read names v]: every named field of [v] reads with [read] (one
    of the accessors above); else the first error. *)

val envelope_of : t -> (string * int) option
(** [(schema, version)] when the value is an object carrying the common
    envelope — a [String] ["schema"] and an [Int] ["version"] field. *)
