(* The benchmark's entry point: one workload per process, chosen by name.

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 runs the workload's fixed traced passes twice, untraced and
   then traced, and reports the per-layer metrics: Metrics counter
   deltas read around each pass, timings of the benchmark's own calls
   into each layer, and a self-time table of its spans. *)
open Common
module Line = Perfbench_core.Line
module Stats = Perfbench_core.Stats
module Selftime = Perfbench_core.Selftime

module type WORKLOAD = sig
  type env

  val setup : ctx -> env
  val teardown : env -> unit

  val pass : env -> int -> pass * (unit -> int)
  (** Pass [k] and its deferred check, run outside the timed window,
      which returns further failed operations. *)

  val traced_passes : int
  val peak_rss_mb : env -> float

  val before_traced : env -> unit
  (** Called once between the untraced and the traced passes. *)

  val layers :
    env ->
    passes:pass list ->
    calls:(string * float) list ->
    deltas:(string * float) list ->
    wall:float ->
    (string * float) list
  (** The workload's own per-layer metrics after the traced passes;
      [calls] are their host-speed-normalised call timings and [wall]
      the traced passes' wall time. *)
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("sec_mix", (module Sec_mix)); ("cosim_long", (module Cosim_long));
    ("faultsim_many", (module Faultsim_many)); ("serve_mix", (module Serve_mix)) ]

let end_to_end = Perfbench_core.Catalog.end_to_end
let per_layer = Perfbench_core.Catalog.per_layer

(* --- host block ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match String.trim (read_file (Filename.concat ".git" r)) with
    | rev -> rev
    | exception Sys_error _ -> r)
  | rev -> rev

(* A digest of the program's sources, which identifies the revision
   where the checkout carries no git metadata. *)
let src_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  List.concat_map files [ "lib"; "bin" ]
  |> List.map (fun p -> p ^ "\000" ^ read_file p)
  |> String.concat "\000" |> Digest.string |> Digest.to_hex

let host ctx =
  Json.to_string
    (Json.envelope ~schema:"perfbench-host" ~version:1
       [ ("workload", Json.String ctx.workload); ("seed", Json.Int ctx.seed);
         ("trace", Json.Bool ctx.trace); ("seconds", Json.Float ctx.seconds);
         ("nproc", Json.Int nproc); ("ocaml", Json.String Sys.ocaml_version);
         ("git_rev", Json.String (git_rev ()));
         ("src_digest", Json.String (src_digest ())) ])

(* --- runs ----------------------------------------------------------------- *)

let setups = 3

(* One pass between two host-speed samples.  Returns the pass with the
   check's failures added, its normalised calls and its raw and
   normalised wall time. *)
let measured_pass ?(on_done = ignore) run_pass k =
  (* Every pass starts from a compacted heap, as a fresh dfv process
     would, so garbage left by earlier passes does not decide when the
     collector runs. *)
  span "host" (fun () ->
      Gc.compact ();
      mark ());
  let (p, check), t0, dt = timed_at (fun () -> run_pass k) in
  on_done ();
  span "host" mark;
  let extra = span "check" check in
  let calls = List.map (fun (c, t, d) -> (c, norm t d)) p.calls in
  ({ p with failed = min p.ops (p.failed + extra) }, calls, dt, norm t0 dt)

let tally passes =
  List.fold_left
    (fun t p -> Line.add t { Line.attempted = p.ops; failed = p.failed })
    Line.zero passes

(* Set-up runs at least [setups] times, and more while the total stays
   under [setup_budget] seconds, so a set-up of a millisecond still gets
   a steady median.  Each but the last is torn down before the next. *)
let setup_budget = 0.3
let setup_cap = 25

let e2e (module W : WORKLOAD) ctx =
  let set_up () =
    mark ();
    let e, t0, dt = timed_at (fun () -> W.setup ctx) in
    mark ();
    (e, dt, norm t0 dt)
  in
  let rec more n spent times =
    let e, dt, nt = set_up () in
    if n + 1 >= setups && (spent +. dt >= setup_budget || n + 1 >= setup_cap) then
      (e, nt :: times)
    else begin
      W.teardown e;
      more (n + 1) (spent +. dt) (nt :: times)
    end
  in
  let env, times = more 0 0. [] in
  let passes, peak =
    Fun.protect
      ~finally:(fun () -> W.teardown env)
      (fun () ->
        (* Whole passes while the next one, at the mean pass time so far,
           still fits in the measured window; at least one. *)
        let rec loop k elapsed acc =
          if k > 0 && elapsed +. (elapsed /. float_of_int k) > ctx.seconds then
            List.rev acc
          else
            let (_, _, dt, _) as r = measured_pass (W.pass env) k in
            loop (k + 1) (elapsed +. dt) (r :: acc)
        in
        let passes = loop 0 0. [] in
        (passes, W.peak_rss_mb env))
  in
  (* Timings are normalised to the reference host speed.  The rate is a
     median over passes.  Call latency is the geometric mean over call
     classes of each class's median: a workload's calls differ in size by
     orders of magnitude, and a median over all of them would jump
     between size classes. *)
  let rate =
    Stats.median (List.map (fun (p, _, _, n) -> float_of_int p.ops /. n) passes)
  in
  let calls = List.concat_map (fun (_, c, _, _) -> c) passes in
  let classes = List.sort_uniq compare (List.map fst calls) in
  let class_median c =
    Stats.median (List.filter_map (fun (k, v) -> if k = c then Some v else None) calls)
  in
  ( tally (List.map (fun (p, _, _, _) -> p) passes),
    [ ("setup_s", Stats.median times); ("peak_rss_mb", peak);
      ("ops_per_s", rate); ("call_gmean_ms", 1000. *. Stats.geomean (List.map class_median classes)) ] )

let print_table ctx rows root_s =
  Printf.printf "layers %s (seed %d): self time of the benchmark's spans\n"
    ctx.workload ctx.seed;
  Printf.printf "  %-24s %7s %10s %7s\n" "span" "calls" "self_s" "share";
  List.iter
    (fun (r : Selftime.row) ->
      Printf.printf "  %-24s %7d %10.4f %6.1f%%\n" r.Selftime.name
        r.Selftime.calls r.Selftime.self_s
        (100. *. r.Selftime.self_s /. root_s))
    rows

let traced (module W : WORKLOAD) ctx =
  let env = W.setup ctx in
  Fun.protect
    ~finally:(fun () -> W.teardown env)
    (fun () ->
      let ks = List.init W.traced_passes Fun.id in
      let plain = List.map (measured_pass (W.pass env)) ks in
      W.before_traced env;
      Trace.enable ();
      let root = Trace.begin_span ~cat:"perfbench" (span_prefix ^ "run") in
      let deltas = ref (List.map (fun (n, _) -> (n, 0.)) (snapshot ())) in
      let traced =
        List.map
          (fun k ->
            let s0 = snapshot () in
            measured_pass
              ~on_done:(fun () -> deltas := add !deltas (diff s0 (snapshot ())))
              (fun k -> span "pass" (fun () -> W.pass env k))
              k)
          ks
      in
      Trace.end_span root;
      let trace = Trace.to_json () in
      let rows =
        Selftime.table
          ~keep:(String.starts_with ~prefix:span_prefix)
          (Trace.events ())
      in
      Trace.disable ();
      (match Json.field "dropped" trace with
      | Some (Json.Int n) when n > 0 ->
        failwith (Printf.sprintf "trace ring overflowed (%d events dropped)" n)
      | _ -> ());
      Json.write_file (Filename.concat ctx.out (ctx.workload ^ ".trace.json")) trace;
      (* The workload's probes run after the trace, untraced, so tracing
         does not inflate what they time. *)
      let passes = List.map (fun (p, _, _, _) -> p) traced in
      let calls = List.concat_map (fun (_, c, _, _) -> c) traced in
      let wall = List.fold_left (fun acc (_, _, dt, _) -> acc +. dt) 0. traced in
      let deltas = !deltas in
      let own = W.layers env ~passes ~calls ~deltas ~wall in
      let root_row =
        List.find (fun r -> r.Selftime.name = span_prefix ^ "run") rows
      in
      print_table ctx
        (List.filter (fun r -> r != root_row) rows
        @ [ { root_row with Selftime.name = "unattributed" } ])
        root_row.Selftime.total_s;
      let normed rs = List.fold_left (fun acc (_, _, _, n) -> acc +. n) 0. rs in
      let t = tally (List.map (fun (p, _, _, _) -> p) plain @ passes) in
      let d = get deltas in
      let solve_s = d "sat.solve_us" /. 1e6 in
      let generic =
        [ ("fail_frac", Line.fail_frac t); ("sat.solve_s", solve_s);
          ("sat.solves", d "sat.solves"); ("sat.conflicts", d "sat.conflicts");
          ("sat.propagations", d "sat.propagations");
          ("sat.props_per_s",
           if solve_s > 0. then d "sat.propagations" /. solve_s else 0.);
          ("sec.queries", d "sec.queries"); ("sec.unknowns", d "sec.unknowns");
          ("sec.frame_s", d "sec.frame_us" /. 1e6);
          ("hwir.runs", d "hwir.compile.runs"); ("rtl.cycles", d "rtl.sim.cycles");
          ("rtl.evals", d "rtl.sim.evals");
          ("cosim.matches", d "cosim.scoreboard.matches");
          ("cosim.mismatches", d "cosim.scoreboard.mismatches");
          ("journal.appends", d "journal.appends");
          ("par.steals", d "pool.domains.steals");
          ("par.retries", d "pool.retry.attempts");
          ("par.telemetry_shipped", d "pool.telemetry.shipped");
          ("obs.trace_overhead_pct", 100. *. ((normed traced /. normed plain) -. 1.));
          ("unattributed_s", root_row.Selftime.self_s) ]
      in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n per_layer) then
            failwith ("metric not declared: " ^ n))
        (generic @ own);
      (t, List.map (fun (n, _) -> (n, get (generic @ own) n)) per_layer))

let run ctx =
  match List.assoc_opt ctx.workload workloads with
  | None ->
    Printf.eprintf "unknown workload %s (one of: %s)\n" ctx.workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some w ->
    let t, metrics = if ctx.trace then traced w ctx else e2e w ctx in
    let units = if ctx.trace then per_layer else end_to_end in
    print_endline (host ctx);
    print_endline
      (Line.render t
         (List.map
            (fun (name, value) ->
              { Line.name; value; unit_ = List.assoc name units })
            metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let out = ref "perfbench/_out" and dfv = ref "_build/default/bin/dfv.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR scratch directory");
      ("--dfv", Arg.Set_string dfv, "PATH the dfv executable") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  (* A daemon that goes away must surface as an error, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through at_exit on a termination signal, so a spawned daemon
     is stopped and waited for. *)
  List.iter
    (fun (s, code) -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigterm, 143); (Sys.sigint, 130) ];
  run
    {
      workload = !workload;
      seed = !seed;
      seconds = float_of_int !seconds;
      trace = !trace = 1;
      out = !out;
      dfv = !dfv;
    }
