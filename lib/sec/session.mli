(** Incremental equivalence-checking sessions.

    A session is the reusable solving substrate the checker entry points
    drive: it owns one AIG, one SAT solver and one persistent CNF
    encoder, so that every query issued through it — per-output checks,
    per-block checks, successive BMC frames — shares structure, Tseitin
    encoding and learnt clauses with the queries before it.

    The three reuse mechanisms:

    - {e incremental encoding}: {!encode}/{!check} only add clauses for
      AIG nodes not already encoded (counted by [nodes_encoded] vs
      [nodes_reused] in {!stats});
    - {e activation literals}: {!activation}/{!guard}/{!retire} scope a
      query's side constraints so they can be switched off afterwards
      without invalidating the solver state;
    - {e cached prefixes}: {!unroll_from_reset} memoizes unrollings (and
      extends a cached shorter run instead of re-synthesizing it), and
      {!product} returns the existing product machine when called again
      with the same designs and initial states, so BMC to depth [d+1]
      extends the depth-[d] encoding frame by frame.

    Every solve goes through {!check}, which applies the session's
    {!Dfv_sat.Solver.budget} (or a per-call override) — a budgeted query
    always terminates, in the worst case with
    [Unknown]. *)

type t
(** A solving session: one AIG + one solver + one CNF map + counters. *)

type stats = {
  aig_ands : int;  (** AND nodes in the session graph *)
  sat_conflicts : int;
  sat_decisions : int;
  sat_propagations : int;
  sat_clauses : int;  (** problem clauses added *)
  learnts_removed : int;  (** learnt clauses dropped by DB reduction *)
  nodes_encoded : int;  (** AIG nodes Tseitin-encoded (fresh work) *)
  nodes_reused : int;  (** cone visits answered by an existing encoding *)
  unroll_hits : int;  (** unroll/product cache hits *)
  queries : int;  (** {!check} calls issued *)
  unknowns : int;  (** queries that ran out of budget *)
  frame_seconds : float list;  (** per-query solve times, oldest first *)
  wall_seconds : float;  (** since the session was created *)
}

exception Error of string
(** Ill-formed query: undriven input port, output width mismatch. *)

val create : ?graph:Dfv_aig.Aig.t -> ?budget:Dfv_sat.Solver.budget -> unit -> t
(** A fresh session.  [graph] supplies an existing AIG to solve against
    (used by the sweeping fallback, which rewrites the graph); the
    default is an empty one.  [budget] bounds every {!check} unless
    overridden per call (default: unlimited). *)

val graph : t -> Dfv_aig.Aig.t
val solver : t -> Dfv_sat.Solver.t
val budget : t -> Dfv_sat.Solver.budget

val stats : t -> stats
(** Cumulative counters over the session's whole lifetime. *)

(** {1 Encoding and solving} *)

val encode : t -> Dfv_aig.Aig.lit -> Dfv_sat.Lit.t
(** Encode a literal's cone (incrementally) and return its solver
    literal. *)

val assert_lit : t -> Dfv_aig.Aig.lit -> unit
(** Permanently constrain a literal true.  Only sound for session-level
    facts (e.g. blocking a miter already proved unsatisfiable); use
    {!guard} for per-query constraints. *)

val block : t -> Dfv_aig.Aig.lit -> unit
(** [block t l] = [assert_lit t (not l)]: permanently rule a literal
    out.  BMC uses it on each frame miter proved unreachable. *)

val activation : t -> Dfv_sat.Lit.t
(** A fresh activation literal for scoping a query's constraints. *)

val guard : t -> Dfv_sat.Lit.t -> Dfv_aig.Aig.lit -> unit
(** [guard t act l] constrains [l] true only while [act] is assumed:
    pass [act] in {!check}'s [assumptions] to activate, {!retire} it to
    switch the constraint off for the rest of the session. *)

val retire : t -> Dfv_sat.Lit.t -> unit
(** Permanently deactivate an activation literal (asserts its negation,
    letting the solver simplify the guarded clauses away).  Retiring
    invalidates the current model — decode counterexamples first. *)

val check :
  ?assumptions:Dfv_sat.Lit.t list ->
  ?budget:Dfv_sat.Solver.budget ->
  ?max_propagations:int ->
  t ->
  Dfv_aig.Aig.lit ->
  Dfv_sat.Solver.outcome
(** [check t l] decides whether [l] is satisfiable under the session's
    clauses and the given assumptions.  Encodes [l] on demand; bounded
    by [budget] (default: the session budget) and by the optional work
    ceiling [max_propagations] (see {!Dfv_sat.Solver.solve_budgeted}).
    Updates the query counters and per-query solve times in {!stats}. *)

val model_lit : t -> Dfv_aig.Aig.lit -> bool
(** A literal's value in the most recent [Sat] model; literals whose
    cone was never encoded are don't-cares (false). *)

val model_word : t -> Dfv_aig.Word.w -> Dfv_bitvec.Bitvec.t
(** {!model_lit} across a word. *)

(** {1 Sequential unrolling} *)

val reset_state :
  Dfv_rtl.Netlist.elaborated -> (Dfv_rtl.Synth.state_id * Dfv_aig.Word.w) list
(** Each state element bound to its (constant) initial value. *)

val arbitrary_state :
  t ->
  tag:string ->
  Dfv_rtl.Netlist.elaborated ->
  (Dfv_rtl.Synth.state_id * Dfv_aig.Word.w) list
(** Each state element bound to fresh inputs (for induction steps);
    [tag] disambiguates the input names between the two designs. *)

val unroll_from_reset :
  t ->
  Dfv_rtl.Netlist.elaborated ->
  cycles:int ->
  input_words:(int -> (string * Dfv_aig.Word.w) list) ->
  (string * Dfv_aig.Word.w) list array
(** Unroll the design [cycles] steps from reset inside the session
    graph, feeding inputs from [input_words t]; returns each cycle's
    output words.  Memoized: a repeat call with the same design and
    input words is free, and a call extending a cached shorter run
    re-synthesizes only the new cycles (both count as [unroll_hits]). *)

(** {1 Product machines (RTL vs RTL)} *)

type product
(** A lazily-unrolled product of two designs sharing inputs by port
    name: frame [t] compares every common output at cycle [t]. *)

val product :
  t ->
  a:Dfv_rtl.Netlist.elaborated ->
  b:Dfv_rtl.Netlist.elaborated ->
  initial_a:(Dfv_rtl.Synth.state_id * Dfv_aig.Word.w) list ->
  initial_b:(Dfv_rtl.Synth.state_id * Dfv_aig.Word.w) list ->
  product
(** The product machine of [a] and [b] from the given initial states.
    Cached: the same designs and initial states return the existing
    product with all its frames already built, so a deeper BMC run
    extends the previous one's encoding instead of starting over. *)

val frame_miter : product -> int -> Dfv_aig.Aig.lit
(** The miter of frame [t] ("some output differs at cycle [t]"),
    unrolling further frames on demand.  Raises {!Error} on output
    width mismatches between the designs. *)

val frames : product -> int
(** Number of frames unrolled so far. *)

val frame_inputs : product -> (string * Dfv_aig.Word.w) list array
(** The shared input words of every unrolled frame, oldest first. *)
