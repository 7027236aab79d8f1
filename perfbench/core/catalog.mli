(** The benchmark's metrics by name and unit, in the order they print. *)

val end_to_end : (string * string) list
(** Measured with tracing off, on every workload. *)

val per_layer : (string * string) list
(** Measured by the traced run; a layer the workload does not exercise
    reads 0. *)
