(* Tests for SAT sweeping: function preservation and merge power. *)

open Dfv_bitvec
open Dfv_aig

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* Build a random AIG and check fraig preserves its function. *)
let test_fraig_preserves_function () =
  let st = Random.State.make [| 31337 |] in
  for _round = 1 to 20 do
    let g = Aig.create () in
    let ninputs = 2 + Random.State.int st 6 in
    let inputs = Array.init ninputs (fun _ -> Aig.input g) in
    let pool = ref (Array.to_list inputs) in
    for _ = 1 to 40 do
      let pick () =
        let l = List.nth !pool (Random.State.int st (List.length !pool)) in
        if Random.State.bool st then Aig.not_ l else l
      in
      let n = Aig.and_ g (pick ()) (pick ()) in
      pool := n :: !pool
    done;
    let roots =
      List.filteri (fun i _ -> i < 5) !pool
    in
    let g', sub = Sweep.fraig g in
    (* Compare on random input assignments. *)
    for _ = 1 to 50 do
      let assignment = Array.init ninputs (fun _ -> Random.State.bool st) in
      let v = Aig.simulate g assignment in
      let v' = Aig.simulate g' assignment in
      List.iter
        (fun r ->
          let a = Aig.lit_of_node_value v r in
          let b = Aig.lit_of_node_value v' (sub r) in
          if a <> b then Alcotest.fail "fraig changed a root's function")
        roots
    done;
    (* A cone sweep from a few of the nodes: every literal, in the cone
       or copied outside it, keeps its function. *)
    let cone_roots =
      List.filteri (fun i _ -> i mod 7 = Random.State.int st 7) !pool
    in
    let g', sub = Sweep.fraig ~roots:cone_roots g in
    for _ = 1 to 50 do
      let assignment = Array.init ninputs (fun _ -> Random.State.bool st) in
      List.iter
        (fun l ->
          if Aig.eval g (Array.get assignment) l
             <> Aig.eval g' (Array.get assignment) (sub l)
          then Alcotest.fail "cone fraig changed a literal's function")
        !pool
    done
  done

let test_fraig_merges_equal_structures () =
  (* Two structurally different formulations of the same function end up
     at the same literal. *)
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g and c = Aig.input g in
  (* (a & b) & c  vs  a & (b & c) *)
  let x = Aig.and_ g (Aig.and_ g a b) c in
  let y = Aig.and_ g a (Aig.and_ g b c) in
  check_bool "different before sweep" true (x <> y);
  let _, sub = Sweep.fraig g in
  check_int "same after sweep" (sub x) (sub y);
  (* De Morgan pair merges too (complement handling). *)
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let x = Aig.not_ (Aig.and_ g a b) in
  let y = Aig.or_ g (Aig.not_ a) (Aig.not_ b) in
  let _, sub = Sweep.fraig g in
  check_int "de morgan merges" (sub x) (sub y)

let test_fraig_merges_adders () =
  (* Word-level: two adder constructions; after sweeping, every output
     bit pair collapses to one literal — this is what makes monolithic
     SEC tractable. *)
  let g = Aig.create () in
  let width = 8 in
  let a = Word.inputs g width and b = Word.inputs g width in
  let s1 = Word.add g a b in
  let s2 = Word.lognot (Word.sub g (Word.lognot a) b) in
  let _, sub = Sweep.fraig g in
  Array.iteri
    (fun i l1 ->
      if sub l1 <> sub s2.(i) then
        Alcotest.failf "bit %d not merged by sweeping" i)
    s1

let test_fraig_keeps_inequivalent_apart () =
  (* Nodes that agree on most patterns but differ somewhere must not be
     merged (the refinement path). *)
  let g = Aig.create () in
  let width = 10 in
  let a = Word.inputs g width in
  (* f = (a == 0), g = (a == 1): agree except on two inputs out of 1024 —
     random patterns likely never distinguish them, so the SAT query and
     refinement must. *)
  let zero = Word.const (Bitvec.zero width) in
  let one = Word.const (Bitvec.create ~width 1) in
  let f = Word.eq g a zero in
  let h = Word.eq g a one in
  let g', sub = Sweep.fraig g in
  check_bool "not merged" true (sub f <> sub h);
  (* And both still compute their function. *)
  let probe v expect_f expect_h =
    let values = Aig.simulate g' (Bitvec.to_bits (Bitvec.create ~width v)) in
    check_bool "f value" expect_f (Aig.lit_of_node_value values (sub f));
    check_bool "h value" expect_h (Aig.lit_of_node_value values (sub h))
  in
  probe 0 true false;
  probe 1 false true;
  probe 5 false false

let test_fraig_reduces_duplicated_logic () =
  (* A miter of two copies of the same function: sweeping reduces it to
     far fewer nodes. *)
  let g = Aig.create () in
  let width = 8 in
  let a = Word.inputs g width and b = Word.inputs g width in
  let m1 = Word.mul g a b in
  (* A slightly restructured multiply: (a * b) computed via shifted adds
     in a different association order. *)
  let m2 = Word.mul g b a in
  let diff = Word.ne g m1 m2 in
  let before = Aig.num_ands g in
  (* Multiplier commutativity is not structurally local: some candidate
     pairs need deep proofs, so give the sweeper a generous per-pair
     budget for this test. *)
  let g', sub = Sweep.fraig ~max_conflicts:50_000 g in
  check_bool "miter is constant false" true (sub diff = Aig.false_);
  check_bool "graph shrank" true (Aig.num_ands g' < before)

let solves () = Dfv_obs.Metrics.(counter_value (counter "sat.solves"))

(* Run [f] and return its result with the sat.solves delta. *)
let counting_solves f =
  let before = solves () in
  let r = f () in
  (r, solves () - before)

(* [(a & b) & c] and [a & (b & c)] over three fresh inputs: equivalent,
   structurally different. *)
let assoc_pair g =
  let a = Aig.input g and b = Aig.input g and c = Aig.input g in
  (Aig.and_ g (Aig.and_ g a b) c, Aig.and_ g a (Aig.and_ g b c))

let test_fraig_cone_only () =
  let g = Aig.create () in
  let x1, y1 = assoc_pair g in
  let x2, y2 = assoc_pair g in
  let (_, whole), whole_solves = counting_solves (fun () -> Sweep.fraig g) in
  check_bool "whole sweep merges the first pair" true (whole x1 = whole y1);
  check_bool "whole sweep merges the second pair" true (whole x2 = whole y2);
  Fun.protect ~finally:Dfv_obs.Trace.disable @@ fun () ->
  Dfv_obs.Trace.enable ();
  let (_, sub), cone_solves =
    counting_solves (fun () -> Sweep.fraig ~roots:[ Aig.xor_ g x1 y1 ] g)
  in
  check_int "whole sweep: one query per pair" 2 whole_solves;
  check_int "cone sweep: no query outside the cone" 1 cone_solves;
  check_bool "cone pair merged" true (sub x1 = sub y1);
  check_bool "pair outside the cone left unmerged" true (sub x2 <> sub y2);
  (* The summary instant reports the same work. *)
  let summary =
    match Dfv_obs.Trace.raw_json () with
    | Dfv_obs.Json.List evs ->
      List.find_map
        (fun ev ->
          match Dfv_obs.Json.field "name" ev with
          | Some (Dfv_obs.Json.String "aig.fraig.done") ->
            Dfv_obs.Json.field "args" ev
          | _ -> None)
        evs
    | _ -> None
  in
  let arg name =
    match Option.bind summary (Dfv_obs.Json.field name) with
    | Some (Dfv_obs.Json.Int n) -> n
    | _ -> Alcotest.failf "aig.fraig.done lacks %s" name
  in
  check_int "instant: sat calls" 1 (arg "sat_calls");
  check_int "instant: merges" 1 (arg "merges");
  check_int "instant: undecided" 0 (arg "undecided");
  (* Three inputs, the four ANDs of the first pair and the XOR's three. *)
  check_int "instant: cone nodes" 10 (arg "cone_nodes")

(* A deadline that has passed stops all proving: no SAT call, and every
   root still computes its function. *)
let test_fraig_past_deadline () =
  let g = Aig.create () in
  let width = 6 in
  let a = Word.inputs g width and b = Word.inputs g width in
  let s1 = Word.add g a b in
  let s2 = Word.lognot (Word.sub g (Word.lognot a) b) in
  let roots = Array.to_list s1 @ Array.to_list s2 in
  let (g', sub), n =
    counting_solves (fun () ->
        Sweep.fraig ~deadline:(Unix.gettimeofday () -. 1.) ~roots g)
  in
  check_int "no SAT call after the deadline" 0 n;
  let _, live = counting_solves (fun () -> Sweep.fraig ~roots g) in
  check_bool "without a deadline the same sweep queries" true (live > 0);
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 100 do
    let assignment =
      Array.init (Aig.num_inputs g) (fun _ -> Random.State.bool st)
    in
    List.iter
      (fun r ->
        check_bool "root keeps its function"
          (Aig.eval g (Array.get assignment) r)
          (Aig.eval g' (Array.get assignment) (sub r)))
      roots
  done

(* The simulation screen: never a witness for an unsatisfiable root set,
   and every witness it returns satisfies all roots. *)
let test_witness_sound () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let ab = Aig.and_ g a b in
  check_bool "contradiction" true (Sweep.witness g [ ab; Aig.not_ a ] = None);
  check_bool "constant false" true (Sweep.witness g [ Aig.false_ ] = None);
  let st = Random.State.make [| 4242 |] in
  let found = ref 0 in
  for _round = 1 to 20 do
    let g = Aig.create () in
    let ninputs = 2 + Random.State.int st 10 in
    let pool = ref (List.init ninputs (fun _ -> Aig.input g)) in
    for _ = 1 to 40 do
      let pick () =
        let l = List.nth !pool (Random.State.int st (List.length !pool)) in
        if Random.State.bool st then Aig.not_ l else l
      in
      pool := Aig.and_ g (pick ()) (pick ()) :: !pool
    done;
    let nroots = 1 + Random.State.int st 3 in
    let roots = List.filteri (fun i _ -> i < nroots) !pool in
    match Sweep.witness g roots with
    | None -> ()
    | Some w ->
      incr found;
      check_int "one value per input" (Aig.num_inputs g) (Array.length w);
      List.iter
        (fun r ->
          check_bool "witness satisfies root" true (Aig.eval g (Array.get w) r))
        roots
  done;
  check_bool "some root sets have witnesses" true (!found > 0);
  (* Deterministic: the same graph gives the same witness. *)
  let roots = [ Aig.or_ g a b ] in
  check_bool "repeatable" true (Sweep.witness g roots = Sweep.witness g roots)

let suite =
  [ Alcotest.test_case "fraig preserves function" `Quick
      test_fraig_preserves_function;
    Alcotest.test_case "fraig merges equal structures" `Quick
      test_fraig_merges_equal_structures;
    Alcotest.test_case "fraig merges adder forms" `Quick
      test_fraig_merges_adders;
    Alcotest.test_case "fraig keeps inequivalent apart" `Quick
      test_fraig_keeps_inequivalent_apart;
    Alcotest.test_case "fraig reduces duplicated logic" `Quick
      test_fraig_reduces_duplicated_logic;
    Alcotest.test_case "fraig sweeps only the roots' cone" `Quick
      test_fraig_cone_only;
    Alcotest.test_case "fraig past its deadline proves nothing" `Quick
      test_fraig_past_deadline;
    Alcotest.test_case "witness is sound" `Quick test_witness_sound ]
