(* CDCL SAT solver (MiniSat lineage).

   Data layout.  The search loops touch only flat int arrays: propagation
   allocates (and goes through the write barrier) only when a watch list
   grows, and conflict analysis allocates only the learnt clause.
   - Clause table: each clause is its own [int array] of literals, named
     by an int id (its index in [clauses]).  Problem and learnt clauses
     share the table; [problem] and [learnts] list their ids in order.
     The two watched literals sit at positions 0 and 1.
   - Watches: [watches.(l)] is a flat array of the ids of the clauses
     watching literal [l], of which the first [nwatches.(l)] are live.  A
     list is allocated on its first watcher and doubles when full; a
     clause is visited when one of its watched literals becomes false.
   - Values: [value.(l)] is 1 / 0 / -1 for literal [l] true / false /
     unassigned; both polarities are written on assignment, so reading a
     literal's value is one load.
   - Reasons: [reason.(v)] is the id of the clause that implied [v], or -1
     for a decision, an assumption or a level-0 unit.
   - Trail, trail_lim and the activity heap are monomorphic int vectors.
   Learnt-DB reduction compacts the table (problem ids first, then the
   surviving learnts) and forwards every reason through the old-to-new id
   map.

   Literal order within clauses and visiting order within watch lists are
   part of the search: tests and [bench/main.exe -- sat_core] pin the
   conflicts, decisions and propagations they produce, because a budgeted
   [Unknown] is part of the serve cache key.  Deliberately absent: one
   flat literal arena (its doubling copies raise peak memory per query),
   blocker literals and LBD-ranked reduction (both change the search). *)

(* The literal encoding documented in lit.mli, restated here so the hot
   loops inline it: dune's default (dev) profile compiles every module
   with -opaque, which makes each call into {!Lit} a real call. *)
let var l = l lsr 1
let negate l = l lxor 1
let is_pos l = l land 1 = 0

type result = Sat | Unsat

type reason = Conflict_limit | Time_limit

type budget = { max_conflicts : int option; max_seconds : float option }

let no_budget = { max_conflicts = None; max_seconds = None }

(* Growable int vector: monomorphic, so reads and writes compile to plain
   loads and stores. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.len
  let shrink v n = v.len <- n
end

type t = {
  (* Per-literal state. *)
  mutable value : int array;          (* 1 true / 0 false / -1 unassigned *)
  mutable watches : int array array;  (* ids of the clauses watching l *)
  mutable nwatches : int array;       (* live prefix of [watches.(l)] *)
  (* Per-variable state. *)
  mutable level : int array;
  mutable reason : int array;   (* implying clause id, or -1 *)
  mutable activity : float array;
  mutable phase : bool array;   (* saved polarity for decisions *)
  mutable heap_pos : int array; (* position in [heap], or -1 *)
  mutable seen : bool array;    (* scratch for conflict analysis *)
  heap : Ivec.t;                (* binary max-heap of variables by activity *)
  mutable nvars : int;
  (* Clause table. *)
  mutable clauses : int array array; (* by id *)
  mutable nids : int;                (* ids in use *)
  problem : Ivec.t;                  (* ids of problem clauses *)
  learnts : Ivec.t;                  (* ids of learnt clauses *)
  (* Trail. *)
  trail : Ivec.t;
  trail_lim : Ivec.t;
  mutable qhead : int;
  (* Activity bookkeeping. *)
  mutable var_inc : float;
  (* Status. *)
  mutable unsat : bool; (* conflict at level 0: permanently unsat *)
  mutable const_true : int; (* lazily allocated always-true literal, or -1 *)
  (* Statistics. *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflict_budget : int; (* -1 = unlimited; counts down in solve *)
  mutable deadline : float; (* absolute gettimeofday bound; infinity = none *)
  (* Learnt-DB reduction. *)
  mutable learnt_limit : int; (* reduce when learnts exceed this; grows *)
  mutable learnts_removed : int;
  (* Scratch for conflict analysis: the learnt literals below the
     conflict level, in discovery order. *)
  lower : Ivec.t;
}

let create () =
  {
    value = Array.make 32 (-1);
    watches = Array.make 32 [||];
    nwatches = Array.make 32 0;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    seen = Array.make 16 false;
    heap = Ivec.create ();
    nvars = 0;
    clauses = Array.make 16 [||];
    nids = 0;
    problem = Ivec.create ();
    learnts = Ivec.create ();
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    var_inc = 1.0;
    unsat = false;
    const_true = -1;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    conflict_budget = -1;
    deadline = infinity;
    learnt_limit = 8192;
    learnts_removed = 0;
    lower = Ivec.create ();
  }

let nvars s = s.nvars
let nclauses s = Ivec.size s.problem
let nlearnts s = Ivec.size s.learnts
let nconflicts s = s.conflicts
let ndecisions s = s.decisions
let npropagations s = s.propagations
let nlearnts_removed s = s.learnts_removed

let set_learnt_limit s n =
  if n < 1 then invalid_arg "Solver.set_learnt_limit";
  s.learnt_limit <- n

(* --- heap of variables ordered by activity ------------------------- *)

(* Sift the variable at [i] towards the root past every parent of lower
   activity.  A hole moves instead of repeated swaps; the comparisons, and
   so the resulting heap, are those of the swap formulation. *)
let heap_up s i =
  let heap = s.heap.Ivec.data and act = s.activity and pos = s.heap_pos in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i in
  while !i > 0 && act.(heap.((!i - 1) / 2)) < a do
    let pi = (!i - 1) / 2 in
    let p = heap.(pi) in
    heap.(!i) <- p;
    pos.(p) <- !i;
    i := pi
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Sift the variable at [i] towards the leaves, each step past the more
   active child (the left one on ties) while that child is more active. *)
let heap_down s i =
  let heap = s.heap.Ivec.data and n = Ivec.size s.heap in
  let act = s.activity and pos = s.heap_pos in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = if l < n && act.(heap.(l)) > a then l else -1 in
    let best = if c < 0 then a else act.(heap.(c)) in
    let c = if r < n && act.(heap.(r)) > best then r else c in
    if c < 0 then continue := false
    else begin
      let w = heap.(c) in
      heap.(!i) <- w;
      pos.(w) <- !i;
      i := c
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    Ivec.push s.heap v;
    s.heap_pos.(v) <- Ivec.size s.heap - 1;
    heap_up s (Ivec.size s.heap - 1)
  end

let heap_pop s =
  let top = Ivec.get s.heap 0 in
  let last = Ivec.get s.heap (Ivec.size s.heap - 1) in
  Ivec.shrink s.heap (Ivec.size s.heap - 1);
  s.heap_pos.(top) <- -1;
  if Ivec.size s.heap > 0 then begin
    Ivec.set s.heap 0 last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  top

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- variables ------------------------------------------------------ *)

let grow a n dummy =
  let b = Array.make n dummy in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arrays s =
  let n = 2 * Array.length s.level in
  s.level <- grow s.level n 0;
  s.reason <- grow s.reason n (-1);
  s.activity <- grow s.activity n 0.0;
  s.phase <- grow s.phase n false;
  s.heap_pos <- grow s.heap_pos n (-1);
  s.seen <- grow s.seen n false;
  s.value <- grow s.value (2 * n) (-1);
  s.watches <- grow s.watches (2 * n) [||];
  s.nwatches <- grow s.nwatches (2 * n) 0

let new_var s =
  if s.nvars = Array.length s.level then grow_arrays s;
  let v = s.nvars in
  s.nvars <- s.nvars + 1;
  heap_insert s v;
  v

(* --- assignment ----------------------------------------------------- *)

let lit_value s l = s.value.(l) (* -1 unassigned, 0 false, 1 true *)

let decision_level s = Ivec.size s.trail_lim

let enqueue s l reason =
  let v = var l in
  s.value.(l) <- 1;
  s.value.(negate l) <- 0;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Ivec.push s.trail l

(* --- clause table and watches --------------------------------------- *)

let watch s l id =
  let ws = s.watches.(l) and n = s.nwatches.(l) in
  if n < Array.length ws then ws.(n) <- id
  else begin
    let ws = grow ws (max 4 (2 * n)) 0 in
    ws.(n) <- id;
    s.watches.(l) <- ws
  end;
  s.nwatches.(l) <- n + 1

let new_clause s c =
  let id = s.nids in
  if id = Array.length s.clauses then
    s.clauses <- grow s.clauses (2 * id) [||];
  s.clauses.(id) <- c;
  s.nids <- id + 1;
  id

let attach_clause s id =
  let c = s.clauses.(id) in
  watch s c.(0) id;
  watch s c.(1) id

(* --- propagation ---------------------------------------------------- *)

(* Propagate the trail from [qhead]; the id of a conflicting clause, or
   -1 if none. *)
let propagate s =
  let value = s.value and clauses = s.clauses in
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < Ivec.size s.trail do
    let p = Ivec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* Literal [np] just became false: visit its watchers. *)
    let np = negate p in
    let ws = s.watches.(np) and n = s.nwatches.(np) in
    (* In-place compaction: clauses that keep watching [np] are copied
       down to position [j]. *)
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let id = ws.(!i) in
      incr i;
      let c = clauses.(id) in
      (* Ensure the false watch is at position 1. *)
      if c.(0) = np then begin
        c.(0) <- c.(1);
        c.(1) <- np
      end;
      let first = c.(0) in
      if value.(first) = 1 then begin
        (* Clause already satisfied by the other watch. *)
        ws.(!j) <- id;
        incr j
      end
      else begin
        (* Look for a new literal to watch. *)
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && value.(c.(!k)) = 0 do
          incr k
        done;
        if !k < len then begin
          (* Move the new watch into position 1 and drop [id] from [ws]
             by not copying it down. *)
          let l = c.(!k) in
          c.(1) <- l;
          c.(!k) <- np;
          watch s l id
        end
        else begin
          ws.(!j) <- id;
          incr j;
          if value.(first) = 0 then begin
            (* All other literals false and [first] false: conflict.
               Keep the remaining watchers in place. *)
            confl := id;
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr i;
              incr j
            done;
            s.qhead <- Ivec.size s.trail
          end
          else (* Unit clause: propagate [first]. *)
            enqueue s first id
        end
      end
    done;
    s.nwatches.(np) <- !j
  done;
  !confl

(* --- activity ------------------------------------------------------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* --- backtracking --------------------------------------------------- *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Ivec.get s.trail_lim lvl in
    for i = Ivec.size s.trail - 1 downto bound do
      let l = Ivec.get s.trail i in
      let v = var l in
      s.phase.(v) <- is_pos l;
      s.value.(l) <- -1;
      s.value.(negate l) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Ivec.shrink s.trail bound;
    Ivec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* --- conflict analysis (1-UIP) -------------------------------------- *)

(* Whether every literal of [c] from [i] on is [q]'s, in the learnt
   clause (the [seen] variables) or fixed at level 0. *)
let rec subsumed s c q i =
  i = Array.length c
  || (let v = var c.(i) in
      (v = var q || s.seen.(v) || s.level.(v) = 0) && subsumed s c q (i + 1))

(* Clause minimization (self-subsumption, non-recursive): [q] is
   redundant when its reason is subsumed by the learnt clause.  Of all
   reason reads, only this one can see an assignment made before the
   last learnt-DB reduction, so it checks that the reason still implies
   [not q] (an implying clause keeps its implied literal first). *)
let redundant s q =
  let r = s.reason.(var q) in
  r >= 0
  &&
  let c = s.clauses.(r) in
  assert (c.(0) = negate q);
  subsumed s c q 0

(* The learnt clause, asserting literal first and a literal of the
   backtrack level second, and that level. *)
let analyze s conflict =
  let lower = s.lower in
  Ivec.shrink lower 0;
  let dl = decision_level s in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (Ivec.size s.trail - 1) in
  let c = ref s.clauses.(conflict) in
  let continue = ref true in
  while !continue do
    let cl = !c in
    for i = 0 to Array.length cl - 1 do
      let q = cl.(i) in
      (* Skip the asserting literal itself on non-first iterations. *)
      if q <> !p then begin
        let v = var q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= dl then incr path else Ivec.push lower q
        end
      end
    done;
    (* Walk the trail backwards to the next marked literal. *)
    while not s.seen.(var (Ivec.get s.trail !idx)) do
      decr idx
    done;
    let l = Ivec.get s.trail !idx in
    decr idx;
    let v = var l in
    s.seen.(v) <- false;
    decr path;
    if !path = 0 then begin
      (* l is the 1-UIP; its negation asserts the learnt clause. *)
      p := negate l;
      continue := false
    end
    else begin
      let r = s.reason.(v) in
      (* a decision cannot be interior to the cut *)
      assert (r >= 0);
      c := s.clauses.(r);
      p := l
    end
  done;
  (* Now [seen] marks exactly the [lower] literals.  Minimize (a dropped
     literal is stored as [-1 - q] until every test has read [seen]),
     then emit the survivors newest first, after the asserting literal. *)
  let n = Ivec.size lower in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let q = Ivec.get lower i in
    if redundant s q then Ivec.set lower i (-1 - q) else incr kept
  done;
  let learnt = Array.make (!kept + 1) !p in
  let k = ref 1 in
  for i = n - 1 downto 0 do
    let q = Ivec.get lower i in
    if q >= 0 then begin
      s.seen.(var q) <- false;
      learnt.(!k) <- q;
      incr k
    end
    else s.seen.(var (-1 - q)) <- false
  done;
  (* Find the backtrack level: the highest level among the non-asserting
     literals (0 if the clause is unit). *)
  let blevel = ref 0 in
  let pos = ref 0 in
  for i = 1 to Array.length learnt - 1 do
    let lv = s.level.(var learnt.(i)) in
    if lv > !blevel then begin
      blevel := lv;
      pos := i
    end
  done;
  (* Put the second-highest-level literal at index 1 (watch invariant). *)
  if Array.length learnt > 1 then begin
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!pos);
    learnt.(!pos) <- tmp
  end;
  (learnt, !blevel)

(* --- clause addition ------------------------------------------------ *)

let add_clause s lits =
  if not s.unsat then begin
    List.iter
      (fun l ->
        if var l >= s.nvars || l < 0 then
          invalid_arg "Solver.add_clause: unallocated variable")
      lits;
    (* Normalize in place: sort, dedupe, drop tautologies and
       level-0-false literals.  Sorted, [l] and [not l] are neighbours. *)
    let a = Array.of_list lits in
    Array.sort Int.compare a;
    let n = ref 0 and prev = ref (-1) in
    let tautology = ref false and satisfied = ref false in
    Array.iter
      (fun l ->
        if l <> !prev then begin
          if l = negate !prev then tautology := true;
          prev := l;
          let fixed = s.level.(var l) = 0 in
          if not (lit_value s l = 0 && fixed) then begin
            if lit_value s l = 1 && fixed then satisfied := true;
            a.(!n) <- l;
            incr n
          end
        end)
      a;
    if not (!tautology || !satisfied) then begin
      match !n with
      | 0 -> s.unsat <- true
      | 1 ->
        let l = a.(0) in
        if lit_value s l = -1 then begin
          enqueue s l (-1);
          if propagate s >= 0 then s.unsat <- true
        end
      | n ->
        let id = new_clause s (Array.sub a 0 n) in
        Ivec.push s.problem id;
        attach_clause s id
    end
  end

(* --- learnt-DB reduction --------------------------------------------- *)

(* A learnt clause is locked while it is the reason for a current
   assignment: it must survive reduction so conflict analysis can still
   walk the implication graph through it.  An implying clause keeps its
   implied literal at position 0. *)
let is_locked s id =
  let l = s.clauses.(id).(0) in
  lit_value s l >= 0 && s.reason.(var l) = id

(* Drop roughly half of the learnt clauses, longest first.  Binary and
   locked clauses always survive.  Sound at any point outside
   [propagate]: removing learnt (implied) clauses never changes
   satisfiability, and every watch list is rebuilt from scratch with the
   same watched literals, so the two-watched invariant is preserved.

   The survivors are the kept clauses newest first, then the shortest
   half of the candidates (newest first among equal lengths); the table
   is compacted to problem clauses then survivors, in that order, and
   reasons are forwarded to the new ids. *)
let reduce_learnts s =
  let nl = Ivec.size s.learnts in
  let keep = Ivec.create () and cands = Ivec.create () in
  for i = nl - 1 downto 0 do
    let id = Ivec.get s.learnts i in
    if Array.length s.clauses.(id) <= 2 || is_locked s id then Ivec.push keep id
    else Ivec.push cands id
  done;
  let cands = Array.sub cands.Ivec.data 0 (Ivec.size cands) in
  let len id = Array.length s.clauses.(id) in
  Array.stable_sort (fun a b -> compare (len a) (len b)) cands;
  let target = Array.length cands / 2 in
  let removed = Array.length cands - target in
  if removed > 0 then begin
    s.learnts_removed <- s.learnts_removed + removed;
    let old = s.clauses and nold = s.nids in
    let fwd = Array.make nold (-1) in
    s.clauses <- Array.make (Array.length old) [||];
    s.nids <- 0;
    let move id =
      let id' = new_clause s old.(id) in
      fwd.(id) <- id';
      id'
    in
    for i = 0 to Ivec.size s.problem - 1 do
      Ivec.set s.problem i (move (Ivec.get s.problem i))
    done;
    Ivec.shrink s.learnts 0;
    for i = 0 to Ivec.size keep - 1 do
      Ivec.push s.learnts (move (Ivec.get keep i))
    done;
    for i = 0 to target - 1 do
      Ivec.push s.learnts (move cands.(i))
    done;
    for v = 0 to s.nvars - 1 do
      let r = s.reason.(v) in
      if r >= 0 then s.reason.(v) <- fwd.(r)
    done;
    (* Rebuild every watch list: problem clauses, then surviving learnts. *)
    Array.fill s.nwatches 0 (Array.length s.nwatches) 0;
    for id = 0 to s.nids - 1 do
      attach_clause s id
    done;
    Dfv_obs.Trace.instant ~cat:"sat"
      ~args:[ ("removed", Dfv_obs.Json.Int removed) ]
      "sat.reduce_learnts"
  end

(* --- search --------------------------------------------------------- *)

let luby i =
  (* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let rec go k sz seq_i =
    if sz - 1 = seq_i then k
    else if seq_i >= sz / 2 then go k (sz / 2) (seq_i - (sz / 2))
    else go (k - 1) (sz / 2) seq_i
  in
  let rec size k = if k = 0 then 1 else (2 * size (k - 1)) + 1 in
  let rec find k = if size k - 1 >= i then k else find (k + 1) in
  let k = find 0 in
  1 lsl go k (size k) i

exception Result of result
exception Out_of_budget of reason

(* The most active unassigned variable, or -1 when all are assigned. *)
let rec pick_branch s =
  if Ivec.size s.heap = 0 then -1
  else begin
    let v = heap_pop s in
    if lit_value s (Lit.pos v) < 0 then v else pick_branch s
  end

let solve ?(assumptions = []) s =
  if s.unsat then Unsat
  else begin
    let n_assumps = List.length assumptions in
    let assumps = Array.of_list assumptions in
    let restart_unit = 100 in
    let restart_idx = ref 0 in
    let budget = ref (restart_unit * luby !restart_idx) in
    try
      (* Main CDCL loop. *)
      while true do
        let conflict = propagate s in
        if conflict >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          if s.conflict_budget > 0 then begin
            s.conflict_budget <- s.conflict_budget - 1;
            if s.conflict_budget = 0 then begin
              cancel_until s 0;
              raise (Out_of_budget Conflict_limit)
            end
          end;
          if
            s.deadline < infinity
            && s.conflicts land 63 = 0
            && Unix.gettimeofday () > s.deadline
          then begin
            cancel_until s 0;
            raise (Out_of_budget Time_limit)
          end;
          decr budget;
          if decision_level s <= n_assumps then begin
            (* Conflict among assumptions (or at level 0). *)
            if decision_level s = 0 then s.unsat <- true;
            cancel_until s 0;
            raise (Result Unsat)
          end;
          let learnt, blevel = analyze s conflict in
          (* Never backtrack past the assumption levels' consequences:
             analyze can produce blevel below assumptions; that is fine —
             the learnt clause stays valid, and re-deciding assumptions is
             handled by the decision loop. *)
          cancel_until s (max blevel 0);
          if Array.length learnt = 1 then begin
            if decision_level s > 0 then cancel_until s 0;
            if lit_value s learnt.(0) = 0 then begin
              s.unsat <- true;
              raise (Result Unsat)
            end
            else if lit_value s learnt.(0) = -1 then enqueue s learnt.(0) (-1)
          end
          else begin
            let id = new_clause s learnt in
            Ivec.push s.learnts id;
            attach_clause s id;
            enqueue s learnt.(0) id
          end;
          var_decay s
        end
        else if !budget <= 0 && decision_level s > n_assumps then begin
          (* Restart; also the safe point for learnt-DB reduction. *)
          incr restart_idx;
          budget := restart_unit * luby !restart_idx;
          cancel_until s n_assumps;
          if Ivec.size s.learnts >= s.learnt_limit then begin
            reduce_learnts s;
            (* Geometric growth keeps reductions amortized. *)
            s.learnt_limit <- s.learnt_limit + (s.learnt_limit / 2)
          end
        end
        else begin
          (* Decide: first the assumptions, then free variables. *)
          let dl = decision_level s in
          if dl < n_assumps then begin
            let a = assumps.(dl) in
            if var a >= s.nvars then
              invalid_arg "Solver.solve: assumption over unallocated variable";
            match lit_value s a with
            | 1 ->
              (* Already true: open an empty level to keep indices
                 aligned with the assumption array. *)
              Ivec.push s.trail_lim (Ivec.size s.trail)
            | 0 -> raise (Result Unsat)
            | _ ->
              Ivec.push s.trail_lim (Ivec.size s.trail);
              enqueue s a (-1)
          end
          else begin
            match pick_branch s with
            | -1 -> raise (Result Sat)
            | v ->
              s.decisions <- s.decisions + 1;
              Ivec.push s.trail_lim (Ivec.size s.trail);
              enqueue s (Lit.make v s.phase.(v)) (-1)
          end
        end
      done;
      assert false
    with Result r ->
      (* On Sat the trail is left intact so [value] can read the model;
         the next solve or add_clause backtracks lazily. *)
      r
  end

let value s l = lit_value s l = 1 (* unassigned vars are don't-cares: false *)

let model s = Array.init s.nvars (fun v -> lit_value s (Lit.pos v) = 1)

let true_lit s =
  if s.const_true < 0 then begin
    (* Must be added at level 0. *)
    cancel_until s 0;
    let v = new_var s in
    s.const_true <- Lit.pos v;
    add_clause s [ Lit.pos v ]
  end;
  s.const_true

let false_lit s = negate (true_lit s)

(* Keep the solver reusable: callers may add clauses after a solve; make
   sure additions happen at level 0. *)
let add_clause s lits =
  cancel_until s 0;
  add_clause s lits

let solve_raw = solve

(* --- observability --------------------------------------------------- *)

let m_solves = Dfv_obs.Metrics.counter "sat.solves"
let m_conflicts = Dfv_obs.Metrics.counter "sat.conflicts"
let m_decisions = Dfv_obs.Metrics.counter "sat.decisions"
let m_propagations = Dfv_obs.Metrics.counter "sat.propagations"
let m_learnts_removed = Dfv_obs.Metrics.counter "sat.learnts_removed"
let m_solve_us = Dfv_obs.Metrics.histogram "sat.solve_us"

(* Publish one batch of counter deltas per solve call instead of touching
   the registry from the search loops: the hot path keeps its local
   stat fields and observability costs a handful of subtractions per
   solve. *)
let observed s f =
  let c0 = s.conflicts and d0 = s.decisions in
  let p0 = s.propagations and l0 = s.learnts_removed in
  let t0 = Unix.gettimeofday () in
  let finally () =
    Dfv_obs.Metrics.incr m_solves;
    Dfv_obs.Metrics.add m_conflicts (s.conflicts - c0);
    Dfv_obs.Metrics.add m_decisions (s.decisions - d0);
    Dfv_obs.Metrics.add m_propagations (s.propagations - p0);
    Dfv_obs.Metrics.add m_learnts_removed (s.learnts_removed - l0);
    Dfv_obs.Metrics.observe m_solve_us
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  in
  Dfv_obs.Trace.with_span ~cat:"sat" "sat.solve" (fun () ->
      Fun.protect ~finally f)

let solve ?assumptions s =
  cancel_until s 0;
  s.conflict_budget <- -1;
  s.deadline <- infinity;
  observed s (fun () -> solve_raw ?assumptions s)

type outcome = Sat | Unsat | Unknown of reason

let solve_budgeted ?assumptions ?(budget = no_budget) s : outcome =
  (match budget.max_conflicts with
  | Some n when n < 1 -> invalid_arg "Solver.solve_budgeted: max_conflicts"
  | Some _ | None -> ());
  (match budget.max_seconds with
  | Some sec when sec < 0.0 -> invalid_arg "Solver.solve_budgeted: max_seconds"
  | Some _ | None -> ());
  cancel_until s 0;
  s.conflict_budget <-
    (match budget.max_conflicts with Some n -> n | None -> -1);
  s.deadline <-
    (match budget.max_seconds with
    | Some sec -> Unix.gettimeofday () +. sec
    | None -> infinity);
  let restore () =
    s.conflict_budget <- -1;
    s.deadline <- infinity
  in
  match observed s (fun () -> solve_raw ?assumptions s) with
  | r ->
    restore ();
    (match r with Sat -> Sat | Unsat -> Unsat)
  | exception Out_of_budget reason ->
    restore ();
    Unknown reason

let solve_bounded ?assumptions ~max_conflicts s =
  let budget = { max_conflicts = Some max_conflicts; max_seconds = None } in
  match solve_budgeted ?assumptions ~budget s with
  | Sat -> Some (Sat : result)
  | Unsat -> Some (Unsat : result)
  | Unknown _ -> None
