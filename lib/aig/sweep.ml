module S = Dfv_sat.Solver
module L = Dfv_sat.Lit

(* SAT sweeping with counterexample-guided refinement.

   Signatures live on the NEW graph and are maintained incrementally:
   an AND node's signature is the AND of its fanins', so a node created
   at any point (including nodes first built for a query miter and later
   reached by hashing) can have its signature computed lazily.  Candidate
   classes are keyed by the canonical signature (complemented so that the
   first simulated bit is 0 — stable under refinement, which never
   rewrites that bit).  Every refuted query contributes its
   distinguishing input pattern to the signatures, splitting the classes,
   so each spurious collision is paid for once — not once per node. *)

let word_mask = (1 lsl 62) - 1

type state = {
  g' : Aig.t;
  solver : S.t;
  enc : Aig.cnf_map;
  max_conflicts : int;
  deadline : float option; (* absolute wall clock for pairwise queries *)
  mutable expired : bool; (* the deadline passed: prove nothing more *)
  mutable calls : int; (* pairwise SAT queries issued *)
  mutable merges : int;
  mutable undecided : int; (* queries that ran out of budget *)
  mutable sig_words : int array array;
      (* per g' node; [||] = not yet computed *)
  mutable bits_used : int; (* filled bits of the newest word *)
  classes : (int array, Aig.lit list) Hashtbl.t;
  mutable reps : Aig.lit list;
  rnd : Random.State.t;
}

(* Random pattern words shared by the sweeper's signatures and the
   screen of [witness]: [sim_words] words of 62 lanes, from a generator
   seeded by the graph so results repeat run to run. *)
let sim_words = 16

let random_word rnd =
  (Random.State.bits rnd land 0x3FFFFFFF)
  lor ((Random.State.bits rnd land 0x3FFFFFFF) lsl 30)
  lor ((Random.State.bits rnd land 0x3) lsl 60)

let ensure_capacity st node =
  if node >= Array.length st.sig_words then begin
    let a = Array.make (max 64 (2 * (node + 1))) [||] in
    Array.blit st.sig_words 0 a 0 (Array.length st.sig_words);
    st.sig_words <- a
  end

let sig_length st = Array.length st.sig_words.(0)

(* Force the signature of a g' node, computing missed (miter-born) nodes
   from their fanins. *)
let rec get_sig st node : int array =
  ensure_capacity st node;
  let s = st.sig_words.(node) in
  if s <> [||] || node = 0 then
    if node = 0 && s = [||] then begin
      let z = Array.make (sig_length st) 0 in
      st.sig_words.(0) <- z;
      z
    end
    else s
  else begin
    match Aig.node_fanins st.g' node with
    | Some (a, b) ->
      let sa = get_lit_sig st a and sb = get_lit_sig st b in
      let s = Array.map2 ( land ) sa sb in
      st.sig_words.(node) <- s;
      s
    | None ->
      (* An input that somehow has no signature yet. *)
      let len = sig_length st in
      let s = Array.init len (fun _ -> random_word st.rnd) in
      s.(len - 1) <- s.(len - 1) land ((1 lsl st.bits_used) - 1);
      st.sig_words.(node) <- s;
      s
  end

and get_lit_sig st l =
  let s = get_sig st (l lsr 1) in
  if l land 1 = 1 then Array.map (fun w -> lnot w land word_mask) s else s

let canon_of s =
  if s.(0) land 1 = 1 then Array.map (fun w -> lnot w land word_mask) s else s

let phase_of s = s.(0) land 1

let register st canon_sig canon_lit =
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt st.classes canon_sig)
  in
  Hashtbl.replace st.classes (Array.copy canon_sig) (canon_lit :: existing);
  st.reps <- canon_lit :: st.reps

let rebuild_classes st =
  Hashtbl.reset st.classes;
  List.iter
    (fun rep ->
      let s = get_lit_sig st rep in
      let existing = Option.value ~default:[] (Hashtbl.find_opt st.classes s) in
      Hashtbl.replace st.classes (Array.copy s) (rep :: existing))
    st.reps

(* Append one input pattern to every computed signature. *)
let refine st pattern =
  let fresh_word = st.bits_used >= 62 in
  let bit = if fresh_word then 0 else st.bits_used in
  st.bits_used <- (if fresh_word then 1 else st.bits_used + 1);
  (* Only nodes with computed signatures participate; nodes beyond the
     storage (created inside query miters) stay lazy. *)
  let tracked = min (Aig.num_nodes st.g') (Array.length st.sig_words) in
  if fresh_word then
    for node = 0 to tracked - 1 do
      if st.sig_words.(node) <> [||] then
        st.sig_words.(node) <- Array.append st.sig_words.(node) [| 0 |]
    done;
  let last = sig_length st - 1 in
  for node = 0 to tracked - 1 do
    if node > 0 && st.sig_words.(node) <> [||] then begin
      let v =
        match Aig.node_fanins st.g' node with
        | Some (a, b) ->
          let bit_of l =
            let s = st.sig_words.(l lsr 1) in
            let raw = (s.(last) lsr bit) land 1 = 1 in
            if l land 1 = 1 then not raw else raw
          in
          bit_of a && bit_of b
        | None -> (
          match Aig.node_input st.g' node with
          | Some k -> k < Array.length pattern && pattern.(k)
          | None -> false)
      in
      if v then
        st.sig_words.(node).(last) <- st.sig_words.(node).(last) lor (1 lsl bit)
    end
  done;
  rebuild_classes st

(* One pairwise query under the per-pair conflict budget and whatever
   the deadline leaves; [None] when undecided.  A deadline that has
   passed issues no query and ends the proving for good. *)
let query st ml =
  let max_seconds =
    Option.map (fun d -> d -. Unix.gettimeofday ()) st.deadline
  in
  if Option.fold ~none:false ~some:(fun s -> s <= 0.) max_seconds then begin
    st.expired <- true;
    None
  end
  else begin
    st.calls <- st.calls + 1;
    let budget = { S.max_conflicts = Some st.max_conflicts; max_seconds } in
    match S.solve_budgeted ~assumptions:[ ml ] ~budget st.solver with
    | S.Sat -> Some (S.Sat : S.result)
    | S.Unsat -> Some (S.Unsat : S.result)
    | S.Unknown r ->
      st.undecided <- st.undecided + 1;
      if r = S.Time_limit then st.expired <- true;
      None
  end

(* Decide equivalence of two g' literals; on refutation, refine. *)
let prove_equal st a b =
  if a = b then true
  else if a = Aig.not_ b then false
  else begin
    let miter = Aig.xor_ st.g' a b in
    if miter = Aig.false_ then true
    else if miter = Aig.true_ then false
    else begin
      let ml = Aig.encode st.enc miter in
      match query st ml with
      | Some S.Unsat ->
        S.add_clause st.solver [ L.negate ml ];
        true
      | Some S.Sat ->
        let ninputs = Aig.num_inputs st.g' in
        let pattern = Array.make ninputs false in
        for node = 0 to Aig.num_nodes st.g' - 1 do
          match Aig.node_input st.g' node with
          | Some k -> (
            match Aig.sat_lit st.enc (node * 2) with
            | sl -> pattern.(k) <- S.value st.solver sl
            | exception Not_found -> ())
          | None -> ()
        done;
        refine st pattern;
        false
      | None -> false
    end
  end

(* The nodes of [g] in the cone of influence of [roots]: fanins have
   smaller ids, so one descending pass marks the whole cone. *)
let cone g roots =
  let n = Aig.num_nodes g in
  let mark = Array.make (max 1 n) false in
  List.iter (fun l -> mark.(l lsr 1) <- true) roots;
  for node = n - 1 downto 1 do
    if mark.(node) then
      match Aig.node_fanins g node with
      | Some (a, b) ->
        mark.(a lsr 1) <- true;
        mark.(b lsr 1) <- true
      | None -> ()
  done;
  mark

let fraig ?(max_conflicts = 1000) ?deadline ?roots g =
  Dfv_obs.Trace.with_span ~cat:"aig" "aig.fraig" @@ fun () ->
  let n = Aig.num_nodes g in
  let in_cone =
    match roots with
    | Some roots -> cone g roots
    | None -> Array.make (max 1 n) true
  in
  let g' = Aig.create () in
  let solver = S.create () in
  let st =
    {
      g';
      solver;
      enc = Aig.encoder g' solver;
      max_conflicts;
      deadline;
      expired = false;
      calls = 0;
      merges = 0;
      undecided = 0;
      sig_words = Array.make (max 64 n) [||];
      bits_used = 62;
      classes = Hashtbl.create 1024;
      reps = [];
      rnd = Random.State.make [| 0x5eed; n |];
    }
  in
  st.sig_words.(0) <- Array.make sim_words 0;
  register st (Array.make sim_words 0) Aig.false_;
  let map = Array.make (max 1 n) Aig.false_ in
  let sub l = map.(l lsr 1) lxor (l land 1) in
  let classify node l =
    if Aig.is_const l || st.expired then map.(node) <- l
    else begin
      let s = get_lit_sig st l in
      let phase = phase_of s in
      let canon_lit = l lxor phase in
      let rec try_reps tried =
        (* Re-read the class each time: refinement rebuilds the table. *)
        let canon_sig = canon_of (get_lit_sig st l) in
        let candidates =
          Option.value ~default:[] (Hashtbl.find_opt st.classes canon_sig)
        in
        let remaining =
          List.filter (fun r -> not (List.memq r tried)) candidates
        in
        match remaining with
        | [] ->
          register st canon_sig canon_lit;
          map.(node) <- l
        | rep :: _ ->
          if rep = canon_lit then map.(node) <- l
          else if prove_equal st canon_lit rep then begin
            st.merges <- st.merges + 1;
            map.(node) <- rep lxor phase
          end
          else if st.expired then map.(node) <- l
          else try_reps (rep :: tried)
      in
      try_reps []
    end
  in
  let cone_nodes = ref 0 in
  for node = 0 to n - 1 do
    let swept = in_cone.(node) in
    if swept then incr cone_nodes;
    match Aig.node_fanins g node with
    | None -> (
      match Aig.node_input g node with
      | Some _ ->
        let l = Aig.input g' in
        map.(node) <- l;
        if swept then begin
          let node' = l lsr 1 in
          ensure_capacity st node';
          let len = sig_length st in
          let s = Array.init len (fun _ -> random_word st.rnd) in
          s.(len - 1) <- s.(len - 1) land ((1 lsl st.bits_used) - 1);
          st.sig_words.(node') <- s;
          register st (canon_of s) (l lxor phase_of s)
        end
      | None -> map.(node) <- Aig.false_)
    | Some (a, b) ->
      let l = Aig.and_ g' (sub a) (sub b) in
      if swept then classify node l else map.(node) <- l
  done;
  Dfv_obs.Trace.instant ~cat:"aig"
    ~args:
      Dfv_obs.Json.
        [ ("cone_nodes", Int !cone_nodes);
          ("sat_calls", Int st.calls);
          ("merges", Int st.merges);
          ("undecided", Int st.undecided) ]
    "aig.fraig.done";
  (g', sub)

(* Random simulation screen: the first of [sim_words] seeded words with
   a lane where every root is true.  Only the node prefix below the
   highest root is simulated, and only the inputs inside it draw
   patterns, so the answer depends on that prefix alone — not on nodes
   a shared graph gained afterwards. *)
let witness g roots =
  let nodes = 1 + List.fold_left (fun m l -> max m (l lsr 1)) 0 roots in
  (* Inputs are numbered in node order: those below [nodes] are a prefix. *)
  let ninputs = ref 0 in
  for node = 0 to nodes - 1 do
    if Option.is_some (Aig.node_input g node) then incr ninputs
  done;
  let ninputs = !ninputs in
  let rnd = Random.State.make [| 0x5eed; nodes |] in
  let lit_word values l =
    let v = values.(l lsr 1) in
    if l land 1 = 1 then lnot v land word_mask else v
  in
  let rec lowest_lane w i =
    if (w lsr i) land 1 = 1 then i else lowest_lane w (i + 1)
  in
  let rec screen k =
    if k = sim_words then None
    else begin
      let pats = Array.init ninputs (fun _ -> random_word rnd) in
      let values = Aig.simulate_words ~nodes g pats in
      let hits =
        List.fold_left (fun acc l -> acc land lit_word values l) word_mask roots
      in
      if hits = 0 then screen (k + 1)
      else begin
        let lane = lowest_lane hits 0 in
        Some
          (Array.init (Aig.num_inputs g) (fun i ->
               i < ninputs && (pats.(i) lsr lane) land 1 = 1))
      end
    end
  in
  screen 0
