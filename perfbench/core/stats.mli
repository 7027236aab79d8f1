(** Sample statistics for the benchmark's timings. *)

val median : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

val tail : ?beyond:int -> float list -> (int * float) option
(** [tail xs] is [Some (p, v)]: the highest whole percentile [p] that
    still has at least [beyond] (default 10) samples strictly above its
    nearest-rank value [v].  [None] when there are [beyond] samples or
    fewer, since no percentile then has enough samples beyond it. *)

val geomean : float list -> float
(** Geometric mean of positive samples.  Raises [Invalid_argument] on an
    empty list. *)
