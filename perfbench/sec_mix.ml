(* sec_mix: one pass is Flow.sec on the 7 clean pairs and the 11 planted
   bugs in seed-shuffled order.  SAT, AIG and SEC do nearly all the
   work; par, journal, serve and cosim do none.  The EQ proofs are UNSAT
   work (including chain's direct-then-fraig retry), the NEQ queries
   are SAT work plus model decode, so a solver change that helps one
   kind and hurts the other shows in the split. *)
open Common
module Flow = Dfv_core.Flow
module Pair = Dfv_core.Pair
module Checker = Dfv_sec.Checker

type expect = Eq | Neq

(* The verdicts the seed commit gives.  fir/cstyle is EQUIVALENT: with
   the mild taps the C-style model never overflows. *)
let table =
  [ ("gcd", "none", Eq); ("alu", "none", Eq); ("fir", "none", Eq);
    ("fir-hot", "none", Eq); ("conv", "none", Eq); ("uart", "none", Eq);
    ("chain", "none", Eq); ("alu", "unsigned-slt", Neq);
    ("alu", "truncated-shift-amount", Neq); ("alu", "missing-carry", Neq);
    ("alu", "swapped-or-xor", Neq); ("fir", "cstyle", Eq);
    ("fir-hot", "cstyle", Neq); ("conv", "wrap", Neq); ("uart", "baud", Neq);
    ("chain", "brightness", Neq); ("chain", "convolution", Neq);
    ("chain", "threshold", Neq) ]

type env = {
  queries : (string * Pair.t * expect) array;  (** design/bug, pair, verdict *)
  mutable neq_params : (Pair.t * (string * Dfv_hwir.Interp.value) list) list;
  ctx : ctx;
}

let setup ctx =
  let queries =
    Array.of_list (List.map (fun (d, b, e) -> (d ^ "/" ^ b, Pairs.make d b, e)) table)
  in
  { queries; neq_params = []; ctx }

let teardown _ = ()
let peak_rss_mb _ = Common.peak_rss_mb "self"
let before_traced _ = ()
let traced_passes = 1

(* A cex reproduces when re-simulating its parameters alone shows a
   diverging check. *)
let reproduces (pair : Pair.t) params =
  let cex =
    Checker.cex_of_params ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
      ~spec:pair.Pair.spec params
  in
  cex.Checker.failed_checks <> []

let pass env k =
  let order = shuffle (rng env.ctx (1000 + k)) env.queries in
  let failed = ref 0 and calls = ref [] and neq = ref [] in
  let eq_s = ref 0. and neq_s = ref 0. and retries = ref 0 in
  Array.iter
    (fun (name, pair, expect) ->
      (* Each query starts from a compacted heap, like `dfv sec` in a
         fresh process, so the shuffled order does not move the
         collector's work between queries. *)
      Gc.compact ();
      let q0 = counter "sec.queries" in
      let verdict, t0, dt =
        timed_at (fun () ->
            span (match expect with Eq -> "sec.eq" | Neq -> "sec.neq")
              (fun () -> Flow.sec pair))
      in
      if counter "sec.queries" - q0 > 1 then incr retries;
      (match (expect, verdict) with
      | Eq, Checker.Equivalent _ -> ()
      | Neq, Checker.Not_equivalent (cex, _) ->
        neq := (pair, cex.Checker.params) :: !neq
      | _ -> incr failed);
      (* Queries run for up to seconds each: sample the host speed
         between them. *)
      mark ();
      calls := (name, t0, dt) :: !calls;
      match expect with Eq -> eq_s := !eq_s +. dt | Neq -> neq_s := !neq_s +. dt)
    order;
  env.neq_params <- !neq;
  let check () =
    List.length
      (List.filter (fun (pair, params) -> not (reproduces pair params)) !neq)
  in
  ( {
      ops = Array.length order;
      failed = !failed;
      calls = !calls;
      sums =
        [ ("sec.eq_s", !eq_s); ("sec.neq_s", !neq_s);
          ("sec.retries", float_of_int !retries) ];
    },
    check )

(* Sweep.fraig on each EQ pair's product graph.  A one-conflict budget
   makes Flow.sec build the whole miter in the session and stop at the
   direct attempt, leaving exactly the graph the retry would sweep. *)
let fraig_s env =
  let tiny = { Dfv_sat.Solver.max_conflicts = Some 1; max_seconds = None } in
  Array.fold_left
    (fun acc (_, pair, expect) ->
      match expect with
      | Neq -> acc
      | Eq ->
        let session = Dfv_sec.Session.create () in
        ignore (Flow.sec ~budget:tiny ~session pair);
        let g = Dfv_sec.Session.graph session in
        let _, dt = timed (fun () -> Dfv_aig.Sweep.fraig g) in
        acc +. dt)
    0. env.queries

let layers env ~passes ~calls:_ ~deltas ~wall:_ =
  let s k = List.fold_left (fun acc p -> acc +. get p.sums k) 0. passes in
  let (), resim =
    timed (fun () ->
        List.iter (fun (pair, params) -> ignore (reproduces pair params)) env.neq_params)
  in
  let queries = List.fold_left (fun acc p -> acc + p.ops) 0 passes in
  [ ("sec.eq_s", s "sec.eq_s"); ("sec.neq_s", s "sec.neq_s");
    ("sec.retry_ratio", s "sec.retries" /. float_of_int queries);
    ("sec.other_s", s "sec.eq_s" +. s "sec.neq_s" -. (get deltas "sat.solve_us" /. 1e6));
    ("sec.cex_resim_s", resim); ("aig.fraig_s", fraig_s env) ]
