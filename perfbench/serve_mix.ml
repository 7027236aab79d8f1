(* serve_mix: a `dfv serve --store` daemon, spawned with
   Unix.create_process (never Unix.fork), under nproc closed-loop
   connections.  About 80% of requests repeat a warmed hot sec/sim key
   and are cache hits; the rest are fresh keys — sim with a new seed, or
   sec on alu, gcd, conv or uart with a fresh budget — which solve and
   fsync to the store.  This is the only path through serve's parse,
   lookup and store and through its batch dispatch: hits skip solving,
   misses also exercise par and journal, so a change that speeds hits
   but slows misses shows. *)
open Common
module Protocol = Dfv_serve.Protocol
module Client = Dfv_serve.Client
module Cache = Dfv_serve.Cache
module Flow = Dfv_core.Flow
module Portfolio = Dfv_par.Portfolio

let sim_vectors = 50
let per_conn = 100 (* requests per connection per pass *)
let fresh_share = 5 (* one request in [fresh_share] is a fresh key *)

let hot =
  List.map (fun d -> Protocol.Sec { design = d; bug = "none"; budget = None })
    [ "alu"; "gcd"; "conv"; "uart" ]
  @ List.concat_map
      (fun d ->
        List.map
          (fun seed -> Protocol.Sim { design = d; bug = "none"; vectors = sim_vectors; seed })
          [ 1; 2 ])
      [ "gcd"; "alu"; "conv"; "fir" ]

let hot_a = Array.of_list hot

type env = {
  ctx : ctx;
  pid : int;
  control : Client.t;
  conns : Client.t array;
  mutable fresh : int;
  mutable expected : (Protocol.op * Protocol.payload) list;
  mutable last : (Protocol.op * bool * Protocol.response) list;
}

(* Daemons still running when the benchmark exits on an exception. *)
let live = ref []

let stop pid =
  if List.mem pid !live then begin
    live := List.filter (( <> ) pid) !live;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  end

let () = at_exit (fun () -> List.iter stop !live)

let spawn ctx ~socket store =
  let log =
    Unix.openfile (Filename.concat ctx.out "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process ctx.dfv
      [| ctx.dfv; "serve"; "--socket"; socket; "--store"; store; "--jobs";
         string_of_int nproc |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  pid

let connect socket =
  match Client.connect ~retries:500 ~delay:0.01 socket with
  | Ok c -> c
  | Error m -> failwith m

let call c op =
  match Client.call c op with Ok r -> r | Error m -> failwith ("serve: " ^ m)

let setup_count = ref 0

(* Spawn, replay the (fresh) store, first pong, then warm the hot set. *)
let setup ctx =
  incr setup_count;
  let file ext = Filename.concat ctx.out (Printf.sprintf "serve-%d.%s" !setup_count ext) in
  let store = file "store" and socket = file "sock" in
  remove store;
  let pid = spawn ctx ~socket store in
  let control = connect socket in
  (match (call control Protocol.Ping).Protocol.outcome with
  | Ok Protocol.R_pong -> ()
  | _ -> failwith "serve: no pong");
  List.iter
    (fun op ->
      match (call control op).Protocol.outcome with
      | Ok _ -> ()
      | Error e -> failwith ("serve warm-up: " ^ Dfv_core.Dfv_error.to_string e))
    hot;
  let conns = Array.init nproc (fun _ -> connect socket) in
  { ctx; pid; control; conns; fresh = 0; expected = []; last = [] }

let teardown env =
  Array.iter Client.close env.conns;
  (match Client.call env.control Protocol.Shutdown with
  | Ok _ -> ()
  | Error _ -> ());
  Client.close env.control;
  if List.mem env.pid !live then begin
    live := List.filter (( <> ) env.pid) !live;
    ignore (Unix.waitpid [] env.pid)
  end

let peak_rss_mb env = Common.peak_rss_mb (string_of_int env.pid)
let traced_passes = 4

(* The schedule of pass [k] on connection [conn].  Fresh keys are unique
   within a run, even when a pass index repeats: sim seeds and sec
   budgets count up past anything the hot set uses. *)
let schedule env k conn =
  let st = rng env.ctx (4000 + (k * 64) + conn) in
  let fresh_designs = [| "gcd"; "alu"; "conv"; "fir" |] in
  let sec_designs = [| "alu"; "gcd"; "conv"; "uart" |] in
  List.init per_conn (fun j ->
      if j mod fresh_share <> fresh_share - 1 then
        (hot_a.(Random.State.int st (Array.length hot_a)), true)
      else
        let id = 1_000_000 + env.fresh in
        env.fresh <- env.fresh + 1;
        if Random.State.bool st then
          ( Protocol.Sim
              { design = fresh_designs.(Random.State.int st 4); bug = "none";
                vectors = sim_vectors; seed = id },
            false )
        else
          ( Protocol.Sec
              { design = sec_designs.(Random.State.int st 4); bug = "none";
                budget = Some { Dfv_sat.Solver.max_conflicts = Some id; max_seconds = None } },
            false ))
  |> Array.of_list
  |> shuffle st

let in_process op =
  match op with
  | Protocol.Sec { design; bug; budget } ->
    Protocol.R_sec (Portfolio.slm_wire_of_verdict (Flow.sec ?budget (Pairs.make design bug)))
  | Protocol.Sim { design; bug; vectors; seed } -> (
    match Flow.simulate ~seed ~vectors (Pairs.make design bug) with
    | Ok (Flow.Sim_clean { vectors }) -> Protocol.R_sim (Protocol.Sim_clean vectors)
    | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
      Protocol.R_sim (Protocol.Sim_mismatch vector_index)
    | Error e -> failwith (Dfv_core.Dfv_error.to_string e))
  | _ -> invalid_arg "in_process"

(* Verdicts agree when their kind and counterexample agree; solver
   statistics and timings are not part of the answer. *)
let same_answer a b =
  match (a, b) with
  | Protocol.R_sec (Portfolio.W_equivalent _), Protocol.R_sec (Portfolio.W_equivalent _) -> true
  | Protocol.R_sec (Portfolio.W_not_equivalent (p, _)),
    Protocol.R_sec (Portfolio.W_not_equivalent (q, _)) ->
    p = q
  | Protocol.R_sim x, Protocol.R_sim y -> x = y
  | _ -> false

let expected env op =
  match List.assoc_opt op env.expected with
  | Some p -> p
  | None ->
    let p = in_process op in
    env.expected <- (op, p) :: env.expected;
    p

let pass env k =
  let scheds = Array.init nproc (fun c -> schedule env k c) in
  let results = Array.make nproc [] in
  let worker c =
    let conn = env.conns.(c) in
    results.(c) <-
      Array.fold_left
        (fun acc (op, is_hot) ->
          let r, t0, dt = timed_at (fun () -> Client.call conn op) in
          (op, is_hot, r, t0, dt) :: acc)
        [] scheds.(c)
  in
  span "serve.requests" (fun () ->
      let threads = Array.init nproc (fun c -> Thread.create worker c) in
      Array.iter Thread.join threads);
  let all = List.concat (Array.to_list results) in
  let failed = ref 0 and calls = ref [] and server = ref 0. and wire = ref 0. in
  let answered = ref [] in
  List.iter
    (fun (op, is_hot, r, t0, rtt) ->
      calls := ((if is_hot then "hit" else "miss"), t0, rtt) :: !calls;
      match r with
      | Error _ -> incr failed
      | Ok (rsp : Protocol.response) -> (
        server := !server +. rsp.Protocol.seconds;
        wire := !wire +. (rtt -. rsp.Protocol.seconds);
        match rsp.Protocol.outcome with
        | Error _ -> incr failed
        | Ok _ when is_hot && not rsp.Protocol.cached -> incr failed
        | Ok _ -> answered := (op, is_hot, rsp) :: !answered))
    all;
  env.last <- !answered;
  let check () =
    List.length
      (List.filter
         (fun (op, _, (rsp : Protocol.response)) ->
           match rsp.Protocol.outcome with
           | Ok p -> not (same_answer p (expected env op))
           | Error _ -> false)
         !answered)
  in
  ( {
      ops = List.length all;
      failed = !failed;
      calls = !calls;
      sums = [ ("serve.server_s", !server); ("serve.wire_s", !wire) ];
    },
    check )

(* Cumulative (hits, misses, solves) over every endpoint of the daemon. *)
let stats env =
  match (call env.control Protocol.Stats).Protocol.outcome with
  | Ok (Protocol.R_stats j) ->
    let int_of = function Some (Json.Int n) -> n | _ -> 0 in
    let eps = match Json.field "endpoints" j with Some (Json.List l) -> l | _ -> [] in
    List.fold_left
      (fun (h, m, s) e ->
        (h + int_of (Json.field "hits" e), m + int_of (Json.field "misses" e),
         s + int_of (Json.field "solves" e)))
      (0, 0, 0) eps
  | _ -> failwith "serve: no stats"

let per_call_us reps xs f =
  let n = List.length xs in
  if n = 0 then 0.
  else
    let (), dt = timed (fun () -> for _ = 1 to reps do List.iter f xs done) in
    1e6 *. dt /. float_of_int (reps * n)

(* In-process layer costs on the workload's own data: frame parsing,
   LRU lookup of the hot keys, and a store-backed add of the misses. *)
let probes env =
  let frames =
    List.mapi
      (fun i (op, _, _) -> Protocol.frame (Protocol.request_to_json { Protocol.id = i; op }))
      env.last
  in
  let parse_us =
    per_call_us 20 frames (fun f ->
        ignore (Result.bind (Protocol.parse_frame (String.trim f)) Protocol.request_of_json))
  in
  let payload (rsp : Protocol.response) =
    match rsp.Protocol.outcome with
    | Ok p -> Protocol.payload_to_json p
    | Error _ -> Json.Null
  in
  let hits = List.filter (fun (_, h, _) -> h) env.last in
  let misses = List.filter (fun (_, h, _) -> not h) env.last in
  let lookup_us =
    match Cache.create () with
    | Error m -> failwith m
    | Ok c ->
      List.iter (fun (_, _, r) -> Cache.add c ~key:r.Protocol.key (payload r)) hits;
      per_call_us 200 hits (fun (_, _, r) -> ignore (Cache.find c r.Protocol.key))
  in
  let scratch = Filename.concat env.ctx.out "serve-scratch.store" in
  remove scratch;
  let store_add_us =
    match Cache.create ~store:scratch () with
    | Error m -> failwith m
    | Ok c ->
      let us =
        per_call_us 1 misses (fun (_, _, r) -> Cache.add c ~key:r.Protocol.key (payload r))
      in
      Cache.close c;
      remove scratch;
      us
  in
  (parse_us, lookup_us, store_add_us)

let stats_before = ref (0, 0, 0)
let before_traced env = stats_before := stats env

let layers env ~passes ~calls ~deltas:_ ~wall =
  let h1, m1, s1 = stats env in
  let h0, m0, s0 = !stats_before in
  let cls c = List.filter_map (fun (k, v) -> if k = c then Some (1000. *. v) else None) calls in
  let tail_of xs = match Perfbench_core.Stats.tail xs with Some (p, v) -> (float_of_int p, v) | None -> (0., 0.) in
  let med xs = if xs = [] then 0. else Perfbench_core.Stats.median xs in
  let hit = cls "hit" and miss = cls "miss" in
  let hit_pct, hit_tail = tail_of hit and miss_pct, miss_tail = tail_of miss in
  let n = List.fold_left (fun acc p -> acc + p.ops) 0 passes in
  let s k = List.fold_left (fun acc p -> acc +. get p.sums k) 0. passes in
  let parse_us, lookup_us, store_add_us = probes env in
  let hits = h1 - h0 and misses = m1 - m0 and solves = s1 - s0 in
  [ ("serve.rps", float_of_int n /. wall);
    ("serve.hit_p50_ms", med hit); ("serve.hit_tail_ms", hit_tail);
    ("serve.hit_tail_pct", hit_pct); ("serve.miss_p50_ms", med miss);
    ("serve.miss_tail_ms", miss_tail); ("serve.miss_tail_pct", miss_pct);
    ("serve.parse_us", parse_us); ("serve.lookup_us", lookup_us);
    ("serve.store_add_us", store_add_us);
    ("serve.server_ms", 1000. *. s "serve.server_s" /. float_of_int n);
    ("serve.wire_ms", 1000. *. s "serve.wire_s" /. float_of_int n);
    ("serve.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ("serve.coalesced", float_of_int (misses - solves));
    ("serve.solves", float_of_int solves);
    ("par.job_overhead_us", Common.job_overhead_us ()) ]
