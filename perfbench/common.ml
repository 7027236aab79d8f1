module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;  (** scratch directory for journals, stores, sockets *)
  dfv : string;  (** the dfv executable, for workloads that spawn it *)
}

let now = Unix.gettimeofday
let nproc = Dfv_par.Pool.cores ()

(* Every input comes from the workload seed: [rng ctx salt] is one
   independent stream per use, so adding a stream never shifts another. *)
let rng ctx salt = Random.State.make [| ctx.seed; salt |]

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [timed_at f] also returns when the call started, for {!norm}. *)
let timed_at f =
  let t0 = now () in
  let r = f () in
  (r, t0, now () -. t0)

(* Spans recorded by the benchmark itself carry this prefix, which keeps
   them apart from the program's own spans in the self-time table. *)
let span_prefix = "pb."
let span name f = Trace.with_span ~cat:"perfbench" (span_prefix ^ name) f

let counter name = Metrics.counter_value (Metrics.counter name)

(* The Metrics counters read at call boundaries, as per-layer deltas. *)
let counter_names =
  [ "sat.solves"; "sat.conflicts"; "sat.propagations"; "sec.queries";
    "sec.unknowns"; "rtl.sim.cycles"; "rtl.sim.evals"; "hwir.compile.runs";
    "cosim.scoreboard.matches"; "cosim.scoreboard.mismatches";
    "journal.appends"; "pool.domains.steals"; "pool.retry.attempts";
    "pool.telemetry.shipped"; "pool.exec.fork" ]

let hist_names = [ "sat.solve_us"; "sec.frame_us" ]

let snapshot () =
  List.map (fun n -> (n, float_of_int (counter n))) counter_names
  @ List.map
      (fun n -> (n, float_of_int (Metrics.histogram_sum (Metrics.histogram n))))
      hist_names

(* Snapshots list the same names in the same order. *)
let diff a b = List.map2 (fun (n, x) (_, y) -> (n, y -. x)) a b
let add a b = List.map2 (fun (n, x) (_, y) -> (n, x +. y)) a b

let get assoc k = Option.value (List.assoc_opt k assoc) ~default:0.

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
        | exception End_of_file -> failwith "no VmHWM line"
      in
      loop ())

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Dpool.map_auto over nproc x K empty jobs: dispatch, ship and merge
   per job, in microseconds. *)
let job_overhead_us () =
  let n = nproc * 256 in
  let _, dt =
    timed (fun () ->
        Dfv_par.Dpool.map_auto ~jobs:nproc ~exec:`Auto
          ~encode:(fun () -> Json.Null)
          ~decode:(fun _ -> Ok ())
          (fun () -> ())
          (List.init n (fun _ -> ())))
  in
  1e6 *. dt /. float_of_int n

(* One pass of a workload: a fixed unit of seeded work. *)
type pass = {
  ops : int;  (** operations completed: queries, transactions, mutants, requests *)
  failed : int;  (** operations whose output failed a check *)
  calls : (string * float * float) list;
      (** (class, start, seconds) per call into the program's entry point;
          calls of one class do the same kind and size of work *)
  sums : (string * float) list;  (** additive per-pass quantities *)
}


(* --- host-speed normalisation ---------------------------------------- *)

(* A small shared host's speed drifts by up to 2x over seconds, which
   swamps any change worth measuring.  A fixed kernel that, like the
   program, allocates short-lived lists, sorts them and probes a hash
   table is timed between passes and calls; a timing is scaled by
   [reference / kernel time] around it, so it reads in seconds at a
   fixed reference speed.  The kernel's garbage dies young and its table
   is built once, so the program's heap does not slow it down, and a
   change to the program moves only the timing being scaled. *)
let table =
  lazy
    (let h = Hashtbl.create 65536 in
     for i = 0 to 40_000 do
       Hashtbl.replace h ((i * 7919) land 0xffff) i
     done;
     h)

(* Kernel seconds at the reference speed. *)
let reference = 0.005

let kernel () =
  let h = Lazy.force table in
  let t0 = now () in
  let s = ref 0 in
  for r = 1 to 10 do
    List.init 2000 (fun i -> ((i * 7919) + r) land 0xffff)
    |> List.sort compare
    |> List.iter (fun k ->
           match Hashtbl.find_opt h k with Some v -> s := !s + v | None -> ())
  done;
  ignore (Sys.opaque_identity !s);
  now () -. t0

(* Speed samples (time taken, kernel seconds), newest first. *)
let samples = ref []
(* Take a speed sample, stamped when it ends: the mean of three kernel
   runs, since one run is too short to be steady on its own. *)
let mark () =
  let k = (kernel () +. kernel () +. kernel ()) /. 3. in
  samples := (now (), k) :: !samples

(* [norm t0 dt] scales a timing that started at [t0] to the reference
   speed.  Samples taken inside it split it into segments (their kernel
   time excluded); each segment is scaled by the mean kernel time of the
   samples on either side of it. *)
let norm t0 dt =
  let t1 = t0 +. dt in
  let oldest_first = List.rev !samples in
  let before = List.find_opt (fun (t, _) -> t <= t0) !samples in
  let inside = List.filter (fun (t, _) -> t > t0 && t < t1) oldest_first in
  let after = List.find_opt (fun (t, _) -> t >= t1) oldest_first in
  let scale d a b =
    match List.filter_map Fun.id [ a; b ] with
    | [] -> d
    | ks -> d *. reference *. float_of_int (List.length ks) /. List.fold_left ( +. ) 0. ks
  in
  let rec go start prev acc = function
    | (t, k) :: rest -> go t (Some k) (acc +. scale (t -. k -. start) prev (Some k)) rest
    | [] -> acc +. scale (t1 -. start) prev (Option.map snd after)
  in
  go t0 (Option.map snd before) 0. inside
