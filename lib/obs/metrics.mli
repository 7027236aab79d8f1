(** Process-wide metrics registry: named counters, gauges and
    log2-bucketed histograms.

    Handles are looked up (or created) by name once, at module init or
    construction time; the hot-path operations ({!incr}, {!add},
    {!set_gauge}, {!observe}) touch only the handle's own mutable
    fields — no table lookup, no allocation — so instrumented inner
    loops pay an integer store.  Counters accumulate for the life of
    the process; {!reset} zeroes values but keeps registrations, so
    benchmarks can diff windows. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create; the same name always yields the same handle. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
(** Also tracks the high-water mark, reported alongside the value. *)

val gauge_value : gauge -> int
val gauge_max : gauge -> int

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Bucket a sample: values [<= 0] land in bucket 0, a value [v >= 1]
    in bucket [floor(log2 v) + 1] — so bucket [i >= 1] spans
    [[2^(i-1), 2^i - 1]]. *)

val bucket_of : int -> int
val bucket_bounds : int -> int * int
(** Inclusive [lo, hi] of a bucket index (bucket 0 is [(min_int, 0)]). *)

val bucket_counts : histogram -> int array
val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val reset : unit -> unit
(** Zero every registered value (registrations survive). *)

(** {2 Domain-local isolation}

    The in-process analogue of the process pool's ship-on-completion
    telemetry protocol (see {!Dfv_par.Pool}): a worker {e domain} calls
    {!isolate_domain} at job start, after which every metric operation
    on that domain — including operations through handles created
    before isolation — records into a private, initially-empty shadow
    registry instead of the process-wide one.  {!domain_snapshot} then
    renders exactly the job's delta in the ordinary [dfv-metrics] wire
    form, ready for {!merge} on the coordinating domain, and
    {!release_domain} uninstalls the shadow.  Registries are never
    shared across domains, so the hot paths stay race-free without
    per-operation locking; when no domain is isolated the extra cost is
    one atomic load and a branch. *)

val isolate_domain : unit -> unit
(** Install a fresh shadow registry on the calling domain.  Raises
    [Invalid_argument] if one is already installed. *)

val domain_snapshot : unit -> Json.t
(** The calling domain's shadow registry as a [dfv-metrics] snapshot.
    Raises [Invalid_argument] when not isolated. *)

val release_domain : unit -> unit
(** Uninstall the calling domain's shadow registry (a no-op when none
    is installed); subsequent operations hit the global registry. *)

val snapshot : unit -> Json.t
(** All registered metrics under the common envelope
    [{"schema":"dfv-metrics","version":1,...}]; histogram buckets are
    listed sparsely as [{"lo","hi","count"}]. *)

val merge : Json.t -> (unit, string) result
(** Fold another process's {!snapshot} into this registry: counters are
    summed, gauges take the max of both value and high-water mark,
    histogram [count]/[sum] are summed and buckets summed elementwise
    (the bucket index is recovered from each bucket's [lo] bound).
    This is how the {!Dfv_par.Pool} parent absorbs worker telemetry.
    Unknown names register on the fly; a malformed snapshot reports the
    first offending field (already-valid fields are still merged). *)

val check : Json.t -> (unit, string) result
(** Whether a document is a well-formed {!snapshot}, read by the same
    walker as {!merge} without touching the registry; the error names
    the first malformed entry, as {!merge}'s does. *)

val iter :
  counter:(string -> int -> unit) ->
  gauge:(string -> int -> int -> unit) ->
  histogram:(string -> int -> int -> int -> int -> unit) ->
  Json.t ->
  (unit, string) result
(** The walker behind {!merge} and {!check}: calls [counter name value],
    [gauge name value max] and [histogram name count sum] (the result
    then takes each bucket's [lo] and [count]) for every well-formed
    entry, in document order. *)

val timing_metric : string -> bool
(** Whether a metric name denotes a duration-valued (hence
    run-nondeterministic) metric — suffix [_us], [_ns] or [_ms]. *)

val strip_timing : Json.t -> Json.t
(** Project a {!snapshot} onto its run-deterministic core: drop
    {!timing_metric} entries and reduce gauges to their high-water
    [max].  Two runs of the same workload — sequential or sharded and
    merged — compare byte-identical after this projection. *)
