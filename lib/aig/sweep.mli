(** SAT sweeping (fraiging).

    Combinational equivalence checking of whole systems routinely defeats
    plain CDCL when the two sides compute the same functions with
    different local structure: the solver must rediscover every internal
    equivalence inside one huge cone.  The standard industrial remedy —
    and a core ingredient of the sequential equivalence checkers the
    paper builds on — is to {e sweep} the graph first: detect candidate
    equivalent node pairs by random simulation, prove each with a small
    local SAT query (incremental, bottom-up, so earlier merges keep later
    queries local), and merge.  The miter of an equivalent pair then
    collapses to constant false structurally.

    {!fraig} rebuilds the graph with all proven-equivalent nodes merged
    and returns a literal translation into the new graph. *)

val fraig : ?max_conflicts:int -> Aig.t -> Aig.t * (Aig.lit -> Aig.lit)
(** [fraig g] returns [(g', sub)] where [sub] maps any literal of [g] to
    an equivalent literal of [g'].  16 seeded 62-bit random pattern
    words (992 patterns) drive candidate detection;
    [max_conflicts] bounds each pairwise SAT query (default 1000 —
    undecided pairs are left unmerged, so the result is always sound). *)

val witness : Aig.t -> Aig.lit list -> bool array option
(** Random simulation screen.  [witness g roots] simulates 16 seeded
    62-lane pattern words (the same count and generator that seed
    {!fraig}'s signatures) and returns the first input assignment,
    indexed by input number, under which every literal of [roots] is
    true; [None] when no lane of the 992 does.  A [Some] answer is a
    genuine witness; [None] proves nothing.  The seed and the simulated
    node prefix derive from the highest root, so the answer repeats for
    the same graph prefix regardless of nodes built after it. *)
