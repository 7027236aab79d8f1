(** Reading dfv's machine artifacts back, for [dfv validate] and
    [dfv report].

    One loader and one table keyed by schema serve both commands.  The
    loader reads a file, recognises a line-framed journal by its first
    line ({!Dfv_par.Journal.inspect} checks it), and otherwise parses
    one JSON document and reads its [{"schema","version"}] envelope.
    The table entry for the schema then checks the payload with the
    reader of the module that writes it — {!Dfv_obs.Metrics.check},
    {!Dfv_obs.Coverage.check}, {!Dfv_obs.Trace.check},
    {!Dfv_fault.Campaign.check_report}, {!Dfv_serve.Server.check} —
    so there is no second copy of any format.  A schema the table does
    not list passes on its envelope alone.  [report] renders only what
    the loader accepted, so it renders exactly the files [validate]
    passes and fails the others with [validate]'s message. *)

val checkers : (string * string) list
(** [(schema, reader)] for every schema checked beyond its envelope. *)

val validate : Buffer.t -> string -> bool
(** [validate buf file] appends one line for [file]: [ok] with its
    schema, version and a short summary, or [FAIL] with the reason —
    an unreadable path, a parse error, a missing envelope, or the
    schema's check ([schema: reason]).  [true] iff the file passed. *)

val report : top:int -> Buffer.t -> string -> bool
(** [report ~top buf file] appends a human-readable summary of [file]
    (the [top] slowest mutants, spans and requests and worst coverage
    holes), or one [FAIL] line with [validate]'s reason, then a blank
    line.  Metrics list
    only non-zero entries and count the rest.  [true] iff the file
    passed. *)
