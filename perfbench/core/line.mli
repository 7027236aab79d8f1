(** The benchmark's result line: one JSON object with exactly the keys
    [correct], [attempted], [failed] and [metrics]. *)

type metric = { name : string; value : float; unit_ : string }

type tally = { attempted : int; failed : int }
(** Operations tried and operations whose output failed a check. *)

val zero : tally
val add : tally -> tally -> tally

val fail_frac : tally -> float
(** [failed / attempted]; 1.0 when nothing was attempted, so an empty
    run never reads as clean. *)

val correct : tally -> bool
(** At least one operation and no failure. *)

val valid_name : string -> bool
(** 1 to 64 characters of letters, digits, [_], [.] and [-], starting
    with a letter or a digit. *)

val valid_unit : string -> bool
(** 1 to 16 characters of letters, digits, [_], [/], [%], [.] and [-]. *)

val render : tally -> metric list -> string
(** The result line.  Raises [Invalid_argument] on a bad or duplicate
    name, a bad unit or a non-finite value. *)
