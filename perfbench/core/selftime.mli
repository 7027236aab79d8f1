(** Per-layer self time from recorded spans. *)

type row = {
  name : string;
  calls : int;
  total_s : float;  (** summed span durations *)
  self_s : float;  (** durations minus the time direct child spans cover *)
}

val table :
  keep:(string -> bool) -> (string * float * float * int) list -> row list
(** [table ~keep events] aggregates the events whose name passes [keep]
    — given as {!Dfv_obs.Trace.events} returns them, [(name, ts_us,
    dur_us, depth)] — into one row per span name, largest self time
    first.  The kept spans must come from one thread, so that they nest;
    a root span's self time is then the time no other kept span claims. *)
