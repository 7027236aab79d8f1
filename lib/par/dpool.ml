module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace
module Coverage = Dfv_obs.Coverage

(* The counter keeps its historical name; it counts [`Auto] dispatches
   to worker processes. *)
let m_exec_process = Metrics.counter "pool.exec.fork"
let m_exec_domains = Metrics.counter "pool.exec.domains"
let m_steals = Metrics.counter "pool.domains.steals"
let m_interrupted = Metrics.counter "pool.interrupted"

(* --- work-stealing deques ---------------------------------------------- *)

(* Every job index is dealt up front (no job spawns jobs), so a deque is
   a fixed slice with two cursors: the owner takes from [lo], thieves
   from [hi].  A plain mutex per deque beats a lock-free structure here —
   the critical section is two loads and a store, and jobs are
   simulation runs, not nanosecond tasks. *)
type deque = {
  mu : Mutex.t;
  slots : int array;
  mutable lo : int;
  mutable hi : int; (* exclusive *)
}

let pop_own d =
  Mutex.lock d.mu;
  let r =
    if d.lo < d.hi then begin
      let j = d.slots.(d.lo) in
      d.lo <- d.lo + 1;
      Some j
    end
    else None
  in
  Mutex.unlock d.mu;
  r

let steal d =
  Mutex.lock d.mu;
  let r =
    if d.lo < d.hi then begin
      d.hi <- d.hi - 1;
      Some d.slots.(d.hi)
    end
    else None
  in
  Mutex.unlock d.mu;
  r

(* --- completion queue --------------------------------------------------- *)

type 'r completion = {
  c_job : int;
  c_slot : int; (* worker slot 0..w-1, which names the trace lane *)
  c_outcome : 'r Pool.outcome;
  c_telemetry : Json.t option;
}

type 'r cq = {
  q_mu : Mutex.t;
  q_cv : Condition.t;
  mutable q_items : 'r completion list; (* rev completion order *)
  mutable q_exited : int; (* worker domains that have stood down *)
}

let push_completion q c =
  Mutex.lock q.q_mu;
  q.q_items <- c :: q.q_items;
  Condition.signal q.q_cv;
  Mutex.unlock q.q_mu

let announce_exit q =
  Mutex.lock q.q_mu;
  q.q_exited <- q.q_exited + 1;
  Condition.broadcast q.q_cv;
  Mutex.unlock q.q_mu

(* --- worker side -------------------------------------------------------- *)

(* One job on a worker domain: isolate all three observability sinks so
   the job records a clean delta (the in-process analogue of a worker
   process's fresh sinks), run the job under the error taxonomy's
   guard, snapshot, release.  Isolation is unconditional even with
   telemetry off — without it, concurrent jobs would race on the global
   registries.  Spans are tagged with the worker slot, not the domain
   id: domain ids never repeat within a process, so successive pools
   would otherwise open a new trace lane per domain ever spawned. *)
let run_job ~slot ~telemetry f x =
  Metrics.isolate_domain ();
  Trace.isolate_domain ~lane:slot;
  Coverage.isolate_domain ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.release_domain ();
      Trace.release_domain ();
      Coverage.release_domain ())
    (fun () ->
      let outcome =
        match Dfv_error.guard (fun () -> f x) with
        | o -> o
        | exception e -> Error (Dfv_error.Internal (Printexc.to_string e))
      in
      let telem =
        if telemetry then
          Some
            (Json.Obj
               [ ("metrics", Metrics.domain_snapshot ());
                 ("trace", Trace.domain_export ());
                 ("coverage", Coverage.domain_snapshot ()) ])
        else None
      in
      (outcome, telem))

(* --- the executor ------------------------------------------------------- *)

let run (type a r) ?jobs ?label:_ ?(telemetry = true) ?on_result
    ~(conclusive : (r -> bool) option) (f : a -> r) (inputs : a list) :
    r Pool.race =
  let jobs = match jobs with None -> Pool.cores () | Some j -> j in
  if jobs < 1 then invalid_arg "Dpool: jobs must be >= 1";
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let outcomes : r Pool.outcome option array = Array.make n None in
  let winner = ref None in
  if n = 0 then { Pool.winner = None; outcomes }
  else begin
    (* Domains beyond the core count only contend with each other (and
       with the coordinating domain), so concurrency is clamped to the
       host — unlike the process pool, where [jobs] is taken literally.
       Verdicts cannot tell the difference; only wall-clock can. *)
    let w = max 1 (min (min jobs n) (Pool.cores ())) in
    let cancel = Atomic.make false in
    (* The coordinating domain owns the global sinks: it merges each
       job's telemetry and fires [on_result] in completion order, so
       callers see exactly the process pool's delivery discipline. *)
    let record c =
      if (not (Atomic.get cancel)) && outcomes.(c.c_job) = None then begin
        outcomes.(c.c_job) <- Some c.c_outcome;
        (match c.c_telemetry with
        | Some v ->
          Pool.merge_telemetry
            ~label:(Printf.sprintf "dfv domain %d" c.c_slot)
            ~job:c.c_job v
        | None -> ());
        match on_result with
        | Some notify -> notify c.c_job c.c_outcome
        | None -> ()
      end
    in
    let check_winner () =
      match conclusive with
      | Some is_conclusive when !winner = None ->
        (* Lowest job index among the recorded conclusive results wins,
           mirroring the process pool's deterministic tie-break. *)
        let best = ref None in
        Array.iteri
          (fun i o ->
            match o with
            | Some (Ok r) when is_conclusive r ->
              if !best = None then best := Some (i, r)
            | _ -> ())
          outcomes;
        (match !best with
        | Some wn ->
          winner := Some wn;
          Atomic.set cancel true
        | None -> ())
      | _ -> ()
    in
    if w = 1 then begin
      (* A single-worker pool runs inline on the calling domain.
         Spawning one domain and blocking here would buy no parallelism
         while switching the runtime into multi-domain mode (every minor
         collection becomes a stop-the-world rendezvous — a measured
         3-4% tax on simulation-heavy campaigns).  Jobs run in index
         order, so the lowest-index-conclusive winner rule holds
         trivially. *)
      (try
         for j = 0 to n - 1 do
           if Atomic.get cancel || Pool.stop_requested () then raise Exit;
           let outcome, telem = run_job ~slot:0 ~telemetry f inputs.(j) in
           record
             { c_job = j; c_slot = 0; c_outcome = outcome;
               c_telemetry = telem };
           check_winner ()
         done
       with Exit -> ())
    end
    else begin
      let counts = Array.make w 0 in
      for j = 0 to n - 1 do
        counts.(j mod w) <- counts.(j mod w) + 1
      done;
      let deques =
        Array.init w (fun k ->
            { mu = Mutex.create (); slots = Array.make counts.(k) 0; lo = 0;
              hi = counts.(k) })
      in
      let fill = Array.make w 0 in
      (* Round-robin dealing: worker k starts with jobs k, k+w, k+2w … so
         early (often journal-missing) indices spread across domains. *)
      for j = 0 to n - 1 do
        let k = j mod w in
        deques.(k).slots.(fill.(k)) <- j;
        fill.(k) <- fill.(k) + 1
      done;
      let q =
        { q_mu = Mutex.create (); q_cv = Condition.create (); q_items = [];
          q_exited = 0 }
      in
      let next_job k =
        match pop_own deques.(k) with
        | Some _ as j -> j
        | None ->
          let rec scan i =
            if i >= w then None
            else
              match steal deques.((k + i) mod w) with
              | Some _ as j ->
                Metrics.incr m_steals;
                j
              | None -> scan (i + 1)
          in
          scan 1
      in
      let worker k () =
        Fun.protect
          ~finally:(fun () -> announce_exit q)
          (fun () ->
            let rec loop () =
              if Atomic.get cancel || Pool.stop_requested () then ()
              else
                match next_job k with
                | None -> ()
                | Some j ->
                  let outcome, telem = run_job ~slot:k ~telemetry f inputs.(j) in
                  push_completion q
                    { c_job = j; c_slot = k; c_outcome = outcome;
                      c_telemetry = telem };
                  loop ()
            in
            loop ())
      in
      let domains = Array.init w (fun k -> Domain.spawn (worker k)) in
      let rec drain () =
        Mutex.lock q.q_mu;
        while q.q_items = [] && q.q_exited < w do
          Condition.wait q.q_cv q.q_mu
        done;
        let batch = List.rev q.q_items in
        q.q_items <- [];
        let all_exited = q.q_exited = w in
        Mutex.unlock q.q_mu;
        List.iter record batch;
        check_winner ();
        if not (all_exited && batch = []) then drain ()
      in
      drain ();
      Array.iter Domain.join domains
    end;
    if Pool.stop_requested () && not (Atomic.get cancel) then
      Array.iter
        (fun o -> if o = None then Metrics.incr m_interrupted)
        outcomes;
    { Pool.winner = !winner; outcomes }
  end

let map ?jobs ?label ?telemetry ?on_result f inputs =
  let lbl = label in
  let r = run ?jobs ?label ?telemetry ?on_result ~conclusive:None f inputs in
  let label = match lbl with Some l -> l | None -> string_of_int in
  Array.to_list r.Pool.outcomes
  |> List.mapi (fun i o ->
         match o with
         | Some o -> o
         | None ->
           if Pool.stop_requested () then
             Error (Dfv_error.Interrupted { job = label i })
           else
             Error
               (Dfv_error.Worker_crashed
                  { job = label i; detail = "job never completed" }))

let race ?jobs ?label ?telemetry ?on_result ~conclusive f inputs =
  run ?jobs ?label ?telemetry ?on_result ~conclusive:(Some conclusive) f
    inputs

(* --- adaptive dispatch -------------------------------------------------- *)

(* Below this measured first-job cost, process start and serialization
   dominate and the domains executor wins; above it, process isolation
   is cheap relative to the work and keeps its crash/timeout
   guarantees. *)
let short_job_threshold = 0.25

type hint = [ `Short ]

let note = function
  | `Process -> Metrics.incr m_exec_process
  | `Domains -> Metrics.incr m_exec_domains

(* Static policy, applied when no probe is possible or wanted: a
   timeout needs preemptive kill (processes only); a short-job hint
   decides directly; otherwise a single core means processes can only
   lose (same serial work plus a process start and serialization per
   job). *)
let choose_static ~timeout ~hint =
  match (timeout, hint) with
  | Some _, _ -> Some `Process
  | None, Some `Short -> Some `Domains
  | None, None -> if Pool.cores () = 1 then Some `Domains else None

let require_no_timeout timeout =
  match timeout with
  | Some _ ->
    invalid_arg
      "Dpool: per-job timeouts require worker processes (a domain cannot \
       be killed preemptively)"
  | None -> ()

let map_auto (type a r) ?jobs ?timeout ?heartbeat ?label ?retry ?telemetry
    ?on_result ?hint ~(exec : Pool.exec_mode)
    ~(encode : r -> Json.t) ~(decode : Json.t -> (r, string) result)
    (f : a -> r) (inputs : a list) : r Pool.outcome list =
  let processes ?label ?on_result inputs =
    Pool.map ?jobs ?timeout ?heartbeat ?label ?retry ?telemetry ?on_result
      ~encode ~decode f inputs
  in
  let domains ?label ?on_result inputs =
    map ?jobs ?label ?telemetry ?on_result f inputs
  in
  match exec with
  | `Process -> processes ?label ?on_result inputs
  | `Domains ->
    require_no_timeout timeout;
    domains ?label ?on_result inputs
  | `Auto -> (
    match choose_static ~timeout ~hint with
    | Some m ->
      note m;
      (match m with
      | `Process -> processes ?label ?on_result inputs
      | `Domains -> domains ?label ?on_result inputs)
    | None -> (
      (* Measured probe: run job 0 inline (on this domain, no isolation
         — its telemetry lands in the global sinks directly, which is
         what merging would do anyway) and time it; the remaining jobs
         go to whichever executor the measured cost favours, with
         indices shifted so labels, seeds and [on_result] still see the
         original positions. *)
      match inputs with
      | [] -> []
      | x0 :: rest ->
        let t0 = Unix.gettimeofday () in
        let o0 =
          match Dfv_error.guard (fun () -> f x0) with
          | o -> o
          | exception e -> Error (Dfv_error.Internal (Printexc.to_string e))
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match on_result with Some notify -> notify 0 o0 | None -> ());
        let shifted_notify =
          Option.map (fun notify i o -> notify (i + 1) o) on_result
        in
        let shifted_label = Option.map (fun l i -> l (i + 1)) label in
        let m = if dt <= short_job_threshold then `Domains else `Process in
        note m;
        let rest_outcomes =
          match m with
          | `Domains ->
            domains ?label:shifted_label ?on_result:shifted_notify rest
          | `Process ->
            processes ?label:shifted_label ?on_result:shifted_notify rest
        in
        o0 :: rest_outcomes))

let race_auto ?jobs ?timeout ?heartbeat ?label ?retry ?telemetry ?on_result
    ?hint ~(exec : Pool.exec_mode) ~encode ~decode ~conclusive f inputs =
  let processes () =
    Pool.race ?jobs ?timeout ?heartbeat ?label ?retry ?telemetry ?on_result
      ~encode ~decode ~conclusive f inputs
  in
  let domains () =
    race ?jobs ?label ?telemetry ?on_result ~conclusive f inputs
  in
  match exec with
  | `Process -> processes ()
  | `Domains ->
    require_no_timeout timeout;
    domains ()
  | `Auto ->
    (* No inline probe for races: racing strategies are heterogeneous,
       so job 0's cost says nothing about the others — and running it
       to completion first would forfeit the race.  Multi-core hosts
       default to processes (isolation for long adversarial
       strategies). *)
    let m =
      match choose_static ~timeout ~hint with
      | Some m -> m
      | None -> `Process
    in
    note m;
    (match m with `Process -> processes () | `Domains -> domains ())
