(* Incremental equivalence-checking sessions.

   One AIG + one solver + one persistent CNF encoder, shared by every
   query issued through the session.  The checker entry points are thin
   drivers over this module; all the reuse machinery (incremental
   Tseitin encoding, activation literals, unroll/product caches) lives
   here. *)

module Bitvec = Dfv_bitvec.Bitvec
module Aig = Dfv_aig.Aig
module Word = Dfv_aig.Word
module Netlist = Dfv_rtl.Netlist
module Synth = Dfv_rtl.Synth
module Solver = Dfv_sat.Solver
module L = Dfv_sat.Lit

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt
let now () = Unix.gettimeofday ()

type stats = {
  aig_ands : int;
  sat_conflicts : int;
  sat_decisions : int;
  sat_propagations : int;
  sat_clauses : int;
  learnts_removed : int;
  nodes_encoded : int;
  nodes_reused : int;
  unroll_hits : int;
  queries : int;
  unknowns : int;
  frame_seconds : float list;
  wall_seconds : float;
}

(* A memoized unrolling-from-reset: the input words fed at each cycle,
   the output words produced, and the state words after the last cycle
   (so a longer run can continue where this one stopped). *)
type unroll_entry = {
  u_design : Netlist.elaborated;
  mutable u_inputs : (string * Word.w) list array;
  mutable u_outs : (string * Word.w) list array;
  mutable u_state : (Synth.state_id * Word.w) list;
}

type t = {
  g : Aig.t;
  solver : Solver.t;
  m : Aig.cnf_map;
  budget : Solver.budget;
  created : float;
  mutable queries : int;
  mutable unknowns : int;
  mutable frame_seconds_rev : float list;
  mutable unrolls : unroll_entry list;
  mutable unroll_hits : int;
  mutable products : product list;
}

and product = {
  p_session : t;
  p_a : Netlist.elaborated;
  p_b : Netlist.elaborated;
  p_init_a : (Synth.state_id * Word.w) list;
  p_init_b : (Synth.state_id * Word.w) list;
  mutable p_state_a : (Synth.state_id * Word.w) list;
  mutable p_state_b : (Synth.state_id * Word.w) list;
  mutable p_inputs_rev : (string * Word.w) list list;
  mutable p_miters_rev : Aig.lit list;
  mutable p_frames : int;
}

let create ?graph ?(budget = Solver.no_budget) () =
  let g = match graph with Some g -> g | None -> Aig.create () in
  let solver = Solver.create () in
  {
    g;
    solver;
    m = Aig.encoder g solver;
    budget;
    created = now ();
    queries = 0;
    unknowns = 0;
    frame_seconds_rev = [];
    unrolls = [];
    unroll_hits = 0;
    products = [];
  }

let graph t = t.g
let solver t = t.solver
let budget t = t.budget

let stats t =
  {
    aig_ands = Aig.num_ands t.g;
    sat_conflicts = Solver.nconflicts t.solver;
    sat_decisions = Solver.ndecisions t.solver;
    sat_propagations = Solver.npropagations t.solver;
    sat_clauses = Solver.nclauses t.solver;
    learnts_removed = Solver.nlearnts_removed t.solver;
    nodes_encoded = Aig.fresh_encoded t.m;
    nodes_reused = Aig.reuse_hits t.m;
    unroll_hits = t.unroll_hits;
    queries = t.queries;
    unknowns = t.unknowns;
    frame_seconds = List.rev t.frame_seconds_rev;
    wall_seconds = now () -. t.created;
  }

(* --- encoding and solving -------------------------------------------- *)

let encode t l = Aig.encode t.m l
let assert_lit t l = Solver.add_clause t.solver [ encode t l ]
let block t l = Solver.add_clause t.solver [ L.negate (encode t l) ]
let activation t = L.pos (Solver.new_var t.solver)
let guard t act l = Solver.add_clause t.solver [ L.negate act; encode t l ]
let retire t act = Solver.add_clause t.solver [ L.negate act ]

let m_queries = Dfv_obs.Metrics.counter "sec.queries"
let m_unknowns = Dfv_obs.Metrics.counter "sec.unknowns"
let m_unroll_hits = Dfv_obs.Metrics.counter "sec.unroll_hits"
let m_frame_us = Dfv_obs.Metrics.histogram "sec.frame_us"

let check ?(assumptions = []) ?budget ?max_propagations t l =
  let sp = Dfv_obs.Trace.begin_span ~cat:"sec" "sec.frame" in
  let b = match budget with Some b -> b | None -> t.budget in
  let t0 = now () in
  let sl = encode t l in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Dfv_obs.Trace.end_span sp)
      (fun () ->
        Solver.solve_budgeted ~assumptions:(assumptions @ [ sl ]) ~budget:b
          ?max_propagations t.solver)
  in
  t.queries <- t.queries + 1;
  Dfv_obs.Metrics.incr m_queries;
  (match outcome with
  | Solver.Unknown _ ->
    t.unknowns <- t.unknowns + 1;
    Dfv_obs.Metrics.incr m_unknowns
  | Solver.Sat | Solver.Unsat -> ());
  let dt = now () -. t0 in
  Dfv_obs.Metrics.observe m_frame_us (int_of_float (dt *. 1e6));
  t.frame_seconds_rev <- dt :: t.frame_seconds_rev;
  outcome

let model_lit t l =
  if l = Aig.false_ then false
  else if l = Aig.true_ then true
  else begin
    match Aig.sat_lit t.m l with
    | sl -> Solver.value t.solver sl
    | exception Not_found -> false
  end

let model_word t (w : Word.w) = Bitvec.of_bits (Array.map (model_lit t) w)

(* --- sequential unrolling -------------------------------------------- *)

let reset_state (d : Netlist.elaborated) =
  List.map (fun (id, _, init) -> (id, Word.const init)) (Synth.state_elements d)

let arbitrary_state t ~tag (d : Netlist.elaborated) =
  List.map
    (fun (id, w, _) ->
      ( id,
        Word.inputs
          ~name:(Printf.sprintf "%s.%s#0" tag (Synth.state_id_name id))
          t.g w ))
    (Synth.state_elements d)

let build_cycle t design ~inputs ~state =
  Synth.build design ~g:t.g
    ~inputs:(fun n ->
      match List.assoc_opt n inputs with
      | Some w -> w
      | None -> fail "input port %s not driven" n)
    ~state:(fun id -> List.assoc id state)

let unroll_from_reset t (design : Netlist.elaborated) ~cycles ~input_words =
  if cycles < 1 then invalid_arg "Session.unroll_from_reset";
  let inputs = Array.init cycles input_words in
  (* [matches n u]: the cached run [u] fed the same first [n] cycles. *)
  let matches n (u : unroll_entry) =
    u.u_design == design
    && Array.length u.u_inputs >= n
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if u.u_inputs.(i) <> inputs.(i) then ok := false
    done;
    !ok
  in
  match
    List.find_opt
      (fun u -> Array.length u.u_inputs >= cycles && matches cycles u)
      t.unrolls
  with
  | Some u ->
    t.unroll_hits <- t.unroll_hits + 1;
    Dfv_obs.Metrics.incr m_unroll_hits;
    Array.sub u.u_outs 0 cycles
  | None ->
    (* No covering run; continue the longest cached prefix, if any. *)
    let best =
      List.fold_left
        (fun acc u ->
          let n = Array.length u.u_inputs in
          if n < cycles && matches n u then begin
            match acc with
            | Some prev when Array.length prev.u_inputs >= n -> acc
            | Some _ | None -> Some u
          end
          else acc)
        None t.unrolls
    in
    let start, state0, prev_outs =
      match best with
      | Some u ->
        t.unroll_hits <- t.unroll_hits + 1;
        Dfv_obs.Metrics.incr m_unroll_hits;
        (Array.length u.u_inputs, u.u_state, u.u_outs)
      | None -> (0, reset_state design, [||])
    in
    let outs = Array.make cycles [] in
    Array.blit prev_outs 0 outs 0 start;
    let state = ref state0 in
    for tm = start to cycles - 1 do
      let o, next = build_cycle t design ~inputs:inputs.(tm) ~state:!state in
      outs.(tm) <- o;
      state := next
    done;
    (match best with
    | Some u ->
      u.u_inputs <- inputs;
      u.u_outs <- outs;
      u.u_state <- !state
    | None ->
      t.unrolls <-
        { u_design = design; u_inputs = inputs; u_outs = outs; u_state = !state }
        :: t.unrolls);
    outs

(* --- product machines ------------------------------------------------- *)

let product t ~a ~b ~initial_a ~initial_b =
  match
    List.find_opt
      (fun p ->
        p.p_a == a && p.p_b == b && p.p_init_a = initial_a
        && p.p_init_b = initial_b)
      t.products
  with
  | Some p ->
    t.unroll_hits <- t.unroll_hits + 1;
    Dfv_obs.Metrics.incr m_unroll_hits;
    p
  | None ->
    let p =
      {
        p_session = t;
        p_a = a;
        p_b = b;
        p_init_a = initial_a;
        p_init_b = initial_b;
        p_state_a = initial_a;
        p_state_b = initial_b;
        p_inputs_rev = [];
        p_miters_rev = [];
        p_frames = 0;
      }
    in
    t.products <- p :: t.products;
    p

let extend_frame p =
  let t = p.p_session in
  let tm = p.p_frames in
  let inputs =
    List.map
      (fun q ->
        ( q.Netlist.port_name,
          Word.inputs
            ~name:(Printf.sprintf "%s@%d" q.Netlist.port_name tm)
            t.g q.Netlist.port_width ))
      p.p_a.Netlist.e_inputs
  in
  let outs_a, next_a = build_cycle t p.p_a ~inputs ~state:p.p_state_a in
  let outs_b, next_b = build_cycle t p.p_b ~inputs ~state:p.p_state_b in
  p.p_state_a <- next_a;
  p.p_state_b <- next_b;
  let diffs =
    List.map
      (fun (name, wa) ->
        match List.assoc_opt name outs_b with
        | None ->
          fail "no output port named %s in %s" name p.p_b.Netlist.e_name
        | Some wb ->
          if Array.length wa <> Array.length wb then
            fail "output %s has width %d in %s but %d in %s" name
              (Array.length wa) p.p_a.Netlist.e_name (Array.length wb)
              p.p_b.Netlist.e_name;
          Word.ne t.g wa wb)
      outs_a
  in
  p.p_inputs_rev <- inputs :: p.p_inputs_rev;
  p.p_miters_rev <- Aig.or_list t.g diffs :: p.p_miters_rev;
  p.p_frames <- tm + 1

let frame_miter p tm =
  if tm < 0 then invalid_arg "Session.frame_miter";
  while p.p_frames <= tm do
    extend_frame p
  done;
  List.nth p.p_miters_rev (p.p_frames - 1 - tm)

let frames p = p.p_frames
let frame_inputs p = Array.of_list (List.rev p.p_inputs_rev)
