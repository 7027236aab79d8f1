(** Functional coverage, OSVVM style: named covergroups of coverpoints,
    each coverpoint a list of value bins.

    Bin semantics follow the industry convention (OSVVM / SystemVerilog
    covergroups): the {e first} bin whose [lo..hi] range contains the
    sampled value claims it.  [Count] bins accumulate hits and define
    the coverage percentage; [Ignore_bin] bins swallow values that are
    legal but uninteresting; [Illegal] bins record values that should
    never occur — an illegal hit is reported separately and never
    improves coverage.  Values matching no bin are counted as misses
    (a modelling gap, not an error).

    Covergroups register globally so the CLI can dump every design's
    coverage in one report.  Construction is guarded by {!enabled}
    at the instrumentation sites, making the layer free when off. *)

type kind = Count | Ignore_bin | Illegal

type bin
type point
type group

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val bin : ?kind:kind -> string -> lo:int -> hi:int -> bin
(** A value bin over the inclusive range [lo..hi] ([kind] defaults to
    [Count]). *)

val group : string -> group
(** Find-or-create a registered covergroup. *)

val point : group -> string -> ?at_least:int -> bin list -> point
(** Find-or-create a coverpoint ([at_least], default 1, is the hit
    count a [Count] bin needs to count as covered).  Re-requesting an
    existing point returns it unchanged. *)

val sample : point -> int -> unit

val bin_hits : point -> (string * kind * int) list
val illegal_count : point -> int
val miss_count : point -> int
val samples : point -> int

val point_coverage : point -> float
(** Fraction (0..1) of [Count] bins with at least [at_least] hits. *)

val group_coverage : group -> float
(** Unweighted mean over the group's points (1.0 for an empty group). *)

val group_name : group -> string
val points : group -> point list
val point_name : point -> string
val at_least : point -> int
val groups : unit -> group list

val reset : unit -> unit
(** Zero all hit counts (groups and points survive). *)

val clear : unit -> unit
(** Drop every registered group (for tests). *)

val group_json : group -> Json.t

val snapshot : unit -> Json.t
(** All groups under the common envelope
    [{"schema":"dfv-coverage","version":1,...}]; each point's bins
    carry their full descriptor ([kind], [lo], [hi], [at_least]) so a
    snapshot is self-contained enough to {!merge} elsewhere. *)

val merge : Json.t -> (unit, string) result
(** Fold another process's {!snapshot} into this registry: groups and
    points are found-or-created from the shipped bin descriptors, bin
    hits / illegal hits / misses / samples are summed.  Registration
    happens even when {!enabled} is false — merging is bookkeeping, not
    sampling, and never re-emits illegal-hit trace instants.  Errors
    name the first malformed or shape-mismatched point; well-formed
    points are still merged. *)

val read : Json.t -> (group list, string) result
(** Decode a {!snapshot} into unregistered groups, in document order,
    with the same walker as {!merge}; the typed accessors above then
    read it.  Errors are {!merge}'s, without its prefix. *)

val check : Json.t -> (unit, string) result
(** Whether a document is a well-formed {!snapshot} ({!read}, result
    dropped). *)

(** {2 Domain-local isolation}

    Mirrors {!Metrics}: a {!Dfv_par.Dpool} worker domain calls
    {!isolate_domain} at job start, after which {!group} resolves into
    a private shadow registry, so the job's covergroups are a clean
    delta ready for {!merge} on the coordinating domain. *)

val isolate_domain : unit -> unit
(** Install a fresh shadow registry on the calling domain.  Raises
    [Invalid_argument] if one is already installed. *)

val domain_snapshot : unit -> Json.t
(** The calling domain's shadow registry as a [dfv-coverage] snapshot.
    Raises [Invalid_argument] when not isolated. *)

val release_domain : unit -> unit
(** Uninstall the calling domain's shadow registry (a no-op when none
    is installed). *)
