(* The dfv command-line tool: run the design-for-verification flows on
   the bundled design pairs.

     dfv list                     enumerate bundled designs
     dfv audit  <design>          Section 3/4 checks on the pair
     dfv sec    <design>          sequential equivalence check
     dfv sim    <design> [-n N]   simulation-based comparison
     dfv verify <design>          audit + SEC (or simulation fallback)
     dfv faultsim [--design D]    mutation campaign scoring the verifier
     dfv serve [--socket S]       persistent verification daemon + cache
     dfv client <op> ...          query a running daemon
     dfv triage <design>          reproduce a failure as a triage bundle
     dfv validate <file>...       check artifacts parse + carry the envelope

   faultsim runs its mutants in pooled workers (--jobs, default = core
   count, except on 1-core hosts where the default falls back to the
   in-process path); sec --jobs N races solving strategies in a
   portfolio.  Either pool runs its jobs on in-process work-stealing
   domains or in worker processes (fresh copies of this executable)
   by one rule: --timeout, which only a process can honour, selects
   processes; otherwise short jobs run on domains.  Verdicts are
   byte-identical on both paths.  Both commands
   take --journal FILE (durable write-ahead journal of verdicts) and
   --resume FILE (replay a journal and run only what is missing);
   faultsim also takes --deadline S (graceful degradation: shrink
   solver budgets, then shed mutants to UNKNOWN instead of dying).
   SIGINT/SIGTERM stop the campaign cleanly: workers are killed, the
   journal is flushed, and the exit code is 4 ("interrupted,
   resumable").

   Bugs can be planted with --bug (see `dfv list`) to watch the flows
   catch them.  The flow commands take --trace FILE (Chrome trace_event
   span timeline) and --coverage FILE (functional coverage report);
   verify and triage take --report FILE (mismatch triage bundle).  All
   files share the {"schema": ..., "version": ...} envelope.

   Exit codes: 0 equivalent/pass, 1 counterexample/mismatch, 2 unknown
   (budget or stimulus exhausted, audit-blocked), 3 usage/internal
   error, 4 interrupted (resumable via --resume). *)

open Cmdliner
module Checker = Dfv_sec.Checker
open Dfv_designs
open Dfv_core

let exit_ok = 0
let exit_cex = 1
let exit_unknown = 2
let exit_error = 3
let exit_interrupted = 4

let exits =
  [ Cmd.Exit.info exit_ok ~doc:"equivalence proved / simulation clean / gate passed.";
    Cmd.Exit.info exit_cex ~doc:"a counterexample or simulation mismatch was found (or the faultsim gate failed).";
    Cmd.Exit.info exit_unknown
      ~doc:"no verdict: SAT budget or stimulus exhausted, or the audit blocks SEC.";
    Cmd.Exit.info exit_error ~doc:"usage or internal error.";
    Cmd.Exit.info exit_interrupted
      ~doc:
        "interrupted by SIGINT/SIGTERM before completion; with --journal \
         or --resume the run can be resumed from the journal." ]

(* Route SIGINT/SIGTERM through the pool's cooperative stop flag for
   the duration of [f]: workers are killed, the journal (if any) stays
   flushed — every completed verdict was fsync'd as it landed — and
   the command exits with {!exit_interrupted} instead of dying
   mid-write.  Handlers are restored afterwards so cmdliner's own
   error paths keep default signal behaviour. *)
let with_interrupt f =
  Dfv_par.Pool.reset_stop ();
  let install s =
    try
      Some
        (Sys.signal s (Sys.Signal_handle (fun _ -> Dfv_par.Pool.request_stop ())))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore s prev =
    match prev with
    | Some b -> ( try Sys.set_signal s b with Invalid_argument _ | Sys_error _ -> ())
    | None -> ()
  in
  let prev_int = install Sys.sigint in
  let prev_term = install Sys.sigterm in
  Fun.protect
    ~finally:(fun () ->
      restore Sys.sigint prev_int;
      restore Sys.sigterm prev_term)
    f

(* --- bundled designs -------------------------------------------------- *)

let alu_bugs =
  List.map (fun b -> (Alu.bug_name b, Some b)) Alu.all_bugs @ [ ("none", None) ]

let make_pair design bug =
  match design with
  | "gcd" ->
    if bug <> "none" then failwith "gcd has no bug variants";
    let t = Gcd.make ~width:4 in
    Pair.create ~name:"gcd" ~slm:t.Gcd.slm ~rtl:t.Gcd.rtl ~spec:t.Gcd.spec
  | "alu" ->
    let bug =
      match List.assoc_opt bug alu_bugs with
      | Some b -> b
      | None -> failwith (Printf.sprintf "unknown alu bug %s" bug)
    in
    let t = Alu.make ?bug ~width:8 () in
    Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec
  | "fir" ->
    let t = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
    let slm =
      if bug = "cstyle" then t.Fir.slm_cstyle
      else if bug = "none" then t.Fir.slm_exact
      else failwith "fir bugs: cstyle"
    in
    Pair.create ~name:"fir" ~slm ~rtl:t.Fir.rtl ~spec:t.Fir.spec
  | "fir-hot" ->
    let t = Fir.make ~taps:[ 127; 127; 127; -128 ] () in
    let slm =
      if bug = "cstyle" then t.Fir.slm_cstyle
      else if bug = "none" then t.Fir.slm_exact
      else failwith "fir-hot bugs: cstyle"
    in
    Pair.create ~name:"fir-hot" ~slm ~rtl:t.Fir.rtl ~spec:t.Fir.spec
  | "conv" ->
    let clamped = bug <> "wrap" in
    if bug <> "none" && bug <> "wrap" then failwith "conv bugs: wrap";
    let good = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
    let rtl =
      if clamped then good.Conv_image.rtl_window
      else
        (Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 ())
          .Conv_image.rtl_window
    in
    Pair.create ~name:"conv" ~slm:good.Conv_image.slm_window ~rtl
      ~spec:good.Conv_image.window_spec
  | "uart" ->
    let t = Uart.make ~baud_div:4 () in
    let rtl =
      if bug = "baud" then (Uart.make ~baud_div:5 ()).Uart.rtl
      else if bug = "none" then t.Uart.rtl
      else failwith "uart bugs: baud"
    in
    Pair.create ~name:"uart" ~slm:t.Uart.slm ~rtl ~spec:t.Uart.spec
  | "chain" ->
    let buggy =
      match bug with
      | "none" -> None
      | "brightness" -> Some Image_chain.Brightness
      | "convolution" -> Some Image_chain.Convolution
      | "threshold" -> Some Image_chain.Threshold
      | _ -> failwith "chain bugs: brightness | convolution | threshold"
    in
    let t = Image_chain.make ?buggy () in
    Pair.create ~name:"chain" ~slm:t.Image_chain.slm ~rtl:t.Image_chain.rtl_top
      ~spec:t.Image_chain.chain_spec
  | d -> failwith (Printf.sprintf "unknown design %s (try `dfv list`)" d)

let designs_doc =
  [ ("gcd", "4-bit Euclid: HWIR SLM vs sequential RTL datapath");
    ("alu", "8-bit ALU; bugs: unsigned-slt, truncated-shift-amount, missing-carry, swapped-or-xor");
    ("fir", "4-tap saturating FIR (mild taps); bugs: cstyle");
    ("fir-hot", "4-tap saturating FIR (overflowing taps); bugs: cstyle");
    ("conv", "3x3 convolution window datapath; bugs: wrap");
    ("uart", "UART transmitter vs frame function; bugs: baud (divisor mismatch)");
    ("chain", "brightness|conv|threshold pipeline; bugs: brightness, convolution, threshold") ]

(* --- commands ----------------------------------------------------------- *)

let list_cmd =
  let doc = "List the bundled design pairs and their plantable bugs." in
  let run () =
    List.iter (fun (n, d) -> Printf.printf "%-8s %s\n" n d) designs_doc;
    exit_ok
  in
  Cmd.v (Cmd.info "list" ~doc ~exits) Term.(const run $ const ())

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN")

let bug_arg =
  Arg.(value & opt string "none" & info [ "bug" ] ~docv:"BUG" ~doc:"Plant a bug variant.")

(* Commands return their exit code; anything the engines throw is mapped
   through the taxonomy to the documented code instead of a stack
   trace. *)
let wrap run = fun design bug ->
  match Dfv_error.guard (fun () -> run (make_pair design bug)) with
  | Ok code -> code
  | Error e ->
    Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
    Dfv_error.exit_code e

(* --- observability flags ----------------------------------------------- *)

type obs = {
  trace_file : string option;
  raw_trace : bool;
  coverage_file : string option;
  metrics_file : string option;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Capture a span timeline of the run and write it to $(docv) as \
             Chrome trace_event JSON (load in chrome://tracing or Perfetto). \
             Pooled runs merge worker spans in under each worker's pid, so \
             the timeline is multi-process.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Write --trace output as the bare Chrome JSON array (no \
             {schema, version} envelope) for consumers that reject the \
             object form.  Raw traces do not pass $(b,dfv validate).")
  in
  let coverage =
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage" ] ~docv:"FILE"
          ~doc:
            "Collect functional coverage (stimulus covergroups) and write \
             the report to $(docv).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run metrics snapshot (counters, gauges, \
             histograms; worker deltas merged in on pooled runs) to \
             $(docv).")
  in
  let combine trace_file raw_trace coverage_file metrics_file =
    { trace_file; raw_trace; coverage_file; metrics_file }
  in
  Term.(const combine $ trace $ raw $ coverage $ metrics)

(* Enable the requested sinks around [f] and flush the files afterwards
   (also on exceptions: a crashed run still leaves its trace behind). *)
let with_obs obs f =
  if obs.trace_file <> None then Dfv_obs.Trace.enable ();
  if obs.coverage_file <> None then Dfv_obs.Coverage.enable ();
  let finish () =
    (match obs.trace_file with
    | Some file -> Dfv_obs.Trace.write_file ~raw:obs.raw_trace file
    | None -> ());
    (match obs.coverage_file with
    | Some file -> Dfv_obs.Json.write_file file (Dfv_obs.Coverage.snapshot ())
    | None -> ());
    match obs.metrics_file with
    | Some file -> Dfv_obs.Json.write_file file (Dfv_obs.Metrics.snapshot ())
    | None -> ()
  in
  Fun.protect ~finally:finish f

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Render a live progress line on stderr: completion, rate, ETA, \
           time to --deadline, and running verdict tallies.  Only when \
           stderr is a TTY; off by default.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a mismatch triage bundle (failing transaction, stimulus, \
           VCD slice, metric/span snapshot) to $(docv).")

let no_failure_json design =
  Dfv_obs.Json.envelope ~schema:"dfv-triage" ~version:1
    [ ("design", Dfv_obs.Json.String design);
      ("kind", Dfv_obs.Json.String "no-failure") ]

let audit_cmd =
  let doc = "Run the design-for-verification audit on a pair." in
  let run pair =
    let audit = Pair.audit pair in
    Format.printf "%a" Pair.pp_audit audit;
    if audit.Pair.sec_ready then exit_ok else exit_unknown
  in
  Cmd.v (Cmd.info "audit" ~doc ~exits) Term.(const (wrap run) $ design_arg $ bug_arg)

let budget_term =
  let conflicts =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"CONFLICTS"
          ~doc:
            "Give up on a SAT query after $(docv) conflicts (the verdict \
             becomes UNKNOWN instead of hanging).")
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-seconds" ] ~docv:"S"
          ~doc:"Give up on a SAT query after $(docv) seconds of wall clock.")
  in
  let combine c s =
    match (c, s) with
    | None, None -> Ok None
    | _ ->
      if (match c with Some n -> n < 1 | None -> false) then
        Error (`Msg "--budget must be at least 1 conflict")
      else if (match s with Some x -> x <= 0.0 | None -> false) then
        Error (`Msg "--budget-seconds must be positive")
      else
        Ok
          (Some
             { Dfv_sat.Solver.max_conflicts = c; Dfv_sat.Solver.max_seconds = s })
  in
  Term.(term_result (const combine $ conflicts $ seconds))

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print session statistics: encoding reuse, clause counts, \
           per-query solve times.")

(* Worker-pool flags.  The term yields [None] when --jobs was absent so
   each command can pick its own resting point — and so an explicit
   --jobs N (any N, even 1) can force the pool while the absent default
   may choose the plain in-process path on 1-core hosts, where pooling
   only adds overhead. *)
let jobs_term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of parallel workers (faultsim defaults to the \
             machine's core count, or the in-process path on a 1-core \
             host; sec to 1).  Short jobs run on in-process domains; \
             jobs under --timeout, and long ones, run in worker \
             processes with crash isolation.  Verdicts are independent \
             of $(docv) and of the executor.  An explicit $(docv) — \
             even 1 — always forces the pool.")
  in
  let check = function
    | Some n when n < 1 -> Error (`Msg "--jobs must be at least 1")
    | v -> Ok v
  in
  Term.(term_result (const check $ jobs))

(* --journal (create or resume) / --resume (must already exist): both
   name the same write-ahead journal file, differing only in whether a
   missing file is an error. *)
let journal_term =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: append every completed verdict \
             (fsync'd) to $(docv) as it lands, creating the file if \
             needed and replaying it if it already exists.  A killed \
             run can then be resumed with --resume $(docv).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from the journal at $(docv) (which must exist): \
             journaled verdicts are replayed instead of re-run, the \
             rest of the campaign runs and keeps appending to the same \
             journal.  The final report is byte-identical (timings \
             aside) to an uninterrupted run.")
  in
  let combine j r =
    match (j, r) with
    | Some _, Some _ -> Error (`Msg "--journal and --resume are mutually exclusive")
    | None, Some f when not (Sys.file_exists f) ->
      Error (`Msg (Printf.sprintf "--resume %s: no such journal" f))
    | (Some _ as v), None | None, (Some _ as v) -> Ok v
    | None, None -> Ok None
  in
  Term.(term_result (const combine $ journal $ resume))

let deadline_term =
  let t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Soft wall-clock budget in seconds for the whole run: jobs \
             started past the halfway point run with linearly shrunk \
             solver budgets, and jobs started past the deadline are \
             shed to UNKNOWN (reported, never silent) instead of the \
             run overshooting.")
  in
  let check = function
    | Some s when s <= 0.0 -> Error (`Msg "--deadline must be positive")
    | t -> Ok t
  in
  Term.(term_result (const check $ t))

let timeout_term =
  let t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"S"
          ~doc:
            "Per-job wall-clock budget in seconds; an expired worker is \
             killed and its job recorded as undecided.  Setting it runs \
             every job in an isolated worker process.")
  in
  let check = function
    | Some s when s <= 0.0 -> Error (`Msg "--timeout must be positive")
    | t -> Ok t
  in
  Term.(term_result (const check $ t))

let reason_string = function
  | Dfv_sat.Solver.Conflict_limit -> "conflict budget exhausted"
  | Dfv_sat.Solver.Time_limit -> "time budget exhausted"

let print_stats (s : Checker.stats) =
  let reuse_pct =
    let total = s.Checker.nodes_encoded + s.Checker.nodes_reused in
    if total = 0 then 0.0
    else 100.0 *. float_of_int s.Checker.nodes_reused /. float_of_int total
  in
  Printf.printf "stats:\n";
  Printf.printf "  aig ands         %d\n" s.Checker.aig_ands;
  Printf.printf "  nodes encoded    %d\n" s.Checker.nodes_encoded;
  Printf.printf "  nodes reused     %d (%.1f%%)\n" s.Checker.nodes_reused
    reuse_pct;
  Printf.printf "  clauses          %d (%d learnts reduced away)\n"
    s.Checker.sat_clauses s.Checker.learnts_removed;
  Printf.printf "  conflicts        %d\n" s.Checker.sat_conflicts;
  Printf.printf "  decisions        %d\n" s.Checker.sat_decisions;
  Printf.printf "  propagations     %d\n" s.Checker.sat_propagations;
  Printf.printf "  unroll hits      %d\n" s.Checker.unroll_hits;
  Printf.printf "  queries          %d (%d unknown)\n" s.Checker.queries
    s.Checker.unknowns;
  Printf.printf "  solve times      %s\n"
    (String.concat " "
       (List.map (Printf.sprintf "%.3fs") s.Checker.frame_seconds));
  Printf.printf "  wall             %.3fs\n" s.Checker.wall_seconds

(* Shared verdict rendering for `dfv sec`, `dfv sec --serve-socket` and
   `dfv client sec`.  All three print from the wire form (a cold verdict
   is reduced via {!Dfv_par.Portfolio.slm_wire_of_verdict} first), so a
   served answer is byte-identical on stdout to the cold CLI's by
   construction — the CI smoke diffs the two. *)
let print_slm_wire ~stats:want_stats w =
  let finish s = if want_stats then print_stats s in
  match w with
  | Dfv_par.Portfolio.W_equivalent stats ->
    Printf.printf
      "EQUIVALENT  (%d AIG nodes, %d conflicts, %d decisions, %.3fs)\n"
      stats.Checker.aig_ands stats.Checker.sat_conflicts
      stats.Checker.sat_decisions stats.Checker.wall_seconds;
    finish stats;
    exit_ok
  | Dfv_par.Portfolio.W_not_equivalent (params, stats) ->
    Printf.printf "NOT EQUIVALENT  (%.3fs)\ncounterexample:\n"
      stats.Checker.wall_seconds;
    List.iter
      (fun (n, v) ->
        match v with
        | Dfv_hwir.Interp.Vint bv ->
          Printf.printf "  %s = %s\n" n (Dfv_bitvec.Bitvec.to_string bv)
        | Dfv_hwir.Interp.Varr a ->
          Printf.printf "  %s = [%s]\n" n
            (String.concat "; "
               (Array.to_list (Array.map Dfv_bitvec.Bitvec.to_string a))))
      params;
    finish stats;
    exit_cex
  | Dfv_par.Portfolio.W_unknown (reason, stats) ->
    Printf.printf "UNKNOWN  (%s after %.3fs)\n" (reason_string reason)
      stats.Checker.wall_seconds;
    finish stats;
    exit_unknown

let print_sim_wire = function
  | Dfv_serve.Protocol.Sim_clean vectors ->
    Printf.printf "CLEAN after %d transactions (no proof)\n" vectors;
    exit_ok
  | Dfv_serve.Protocol.Sim_mismatch vector_index ->
    Printf.printf "MISMATCH at transaction %d\n" vector_index;
    exit_cex

(* One request-response against a daemon.  The cache-hit notice goes to
   stderr so stdout stays diffable against the cold command. *)
let client_call ~socket ~retries op k =
  match Dfv_serve.Client.one_shot ~retries ~socket op with
  | Error m ->
    Printf.eprintf "error: %s\n" m;
    exit_error
  | Ok r ->
    if r.Dfv_serve.Protocol.cached then
      Printf.eprintf "dfv serve: served from cache in %.3fs\n"
        r.Dfv_serve.Protocol.seconds;
    (match r.Dfv_serve.Protocol.outcome with
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
    | Ok p -> k p)

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve-socket" ] ~docv:"SOCK"
        ~doc:
          "Fast path: send the query to the $(b,dfv serve) daemon \
           listening on $(docv) instead of solving locally.  A repeated \
           query is answered from the daemon's content-addressed cache; \
           stdout and the exit code are identical to the local run \
           (cache notices go to stderr).")

let sec_cmd =
  let doc =
    "Run sequential equivalence checking on a pair.  With --jobs above 1 \
     the check runs as a strategy portfolio: solving variants race in \
     worker processes and the first conclusive verdict cancels the rest.  \
     With --serve-socket the query is answered by a dfv serve daemon."
  in
  let run budget stats jobs journal progress serve_socket obs design bug =
    with_obs obs @@ fun () ->
    with_interrupt @@ fun () ->
    match serve_socket with
    | Some socket ->
      client_call ~socket ~retries:0
        (Dfv_serve.Protocol.Sec { design; bug; budget })
        (function
          | Dfv_serve.Protocol.R_sec w -> print_slm_wire ~stats w
          | _ ->
            Printf.eprintf "error: unexpected response payload\n";
            exit_error)
    | None ->
    (wrap (fun pair ->
        let report v =
          print_slm_wire ~stats (Dfv_par.Portfolio.slm_wire_of_verdict v)
        in
        (* A journal or --progress implies the portfolio path (that is
           where verdicts are journaled and reported), even without
           --jobs. *)
        if jobs = None && journal = None && not progress then
          report (Flow.sec ?budget pair)
        else
          let jobs = Option.value jobs ~default:1 in
          match
            Dfv_par.Portfolio.check_slm_rtl ~jobs ~exec:`Auto ?budget ?journal
              ~progress ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
              ~spec:pair.Pair.spec ()
          with
          | Ok v -> report v
          | Error e ->
            Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
            (match (e, journal) with
            | Dfv_error.Interrupted _, Some path ->
              Printf.eprintf "resume with: dfv sec --resume %s ...\n" path
            | _ -> ());
            Dfv_error.exit_code e))
      design bug
  in
  Cmd.v (Cmd.info "sec" ~doc ~exits)
    Term.(
      const run $ budget_term $ stats_arg $ jobs_term $ journal_term
      $ progress_arg $ serve_socket_arg $ obs_term $ design_arg $ bug_arg)

let vectors_arg =
  Arg.(value & opt int 1000 & info [ "n"; "vectors" ] ~docv:"N" ~doc:"Number of random transactions.")

let engine_term =
  let engine_conv = Arg.enum [ ("interp", `Interp); ("compiled", `Compiled) ] in
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "System-level model execution engine: $(b,compiled) lowers the \
           model through the verified normal form onto the shared \
           slot-indexed kernel (and errors on models outside the normal \
           form); $(b,interp) forces the tree-walking reference.  Default: \
           compiled for conditioned models, with automatic fallback to the \
           interpreter.")

let sim_cmd =
  let doc =
    "Run simulation-based SLM/RTL comparison on a pair.  With \
     --serve-socket the run is answered by a dfv serve daemon (--engine \
     is then moot: the engines are behaviourally identical and the \
     daemon picks)."
  in
  let run vectors engine serve_socket obs design bug =
    with_obs obs @@ fun () ->
    match serve_socket with
    | Some socket ->
      client_call ~socket ~retries:0
        (Dfv_serve.Protocol.Sim { design; bug; vectors; seed = 0 })
        (function
          | Dfv_serve.Protocol.R_sim w -> print_sim_wire w
          | _ ->
            Printf.eprintf "error: unexpected response payload\n";
            exit_error)
    | None ->
    (wrap (fun pair ->
         match Flow.simulate ?engine ~vectors pair with
         | Ok (Flow.Sim_clean { vectors }) ->
           print_sim_wire (Dfv_serve.Protocol.Sim_clean vectors)
         | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
           print_sim_wire (Dfv_serve.Protocol.Sim_mismatch vector_index)
         | Error e ->
           Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
           Dfv_error.exit_code e))
      design bug
  in
  Cmd.v (Cmd.info "sim" ~doc ~exits)
    Term.(
      const run $ vectors_arg $ engine_term $ serve_socket_arg $ obs_term
      $ design_arg $ bug_arg)

let verify_cmd =
  let doc = "Audit, then SEC (or simulation when SEC is blocked)." in
  let run budget engine obs report_file design bug =
    with_obs obs @@ fun () ->
    (wrap (fun pair ->
         let report = Flow.verify ?engine ?budget pair in
         Format.printf "%a" Flow.pp_report report;
         (match report_file with
         | Some file -> (
           match Flow.triage_of_report pair report with
           | Some t -> Dfv_obs.Triage.write_file file t
           | None ->
             Dfv_obs.Json.write_file file (no_failure_json pair.Pair.name))
         | None -> ());
         match report.Flow.outcome with
         | Flow.Proved _ | Flow.Simulated (Flow.Sim_clean _) -> exit_ok
         | Flow.Refuted _ | Flow.Simulated (Flow.Sim_mismatch _) -> exit_cex
         | Flow.Undecided _ -> exit_unknown
         | Flow.Errored e -> Dfv_error.exit_code e))
      design bug
  in
  Cmd.v (Cmd.info "verify" ~doc ~exits)
    Term.(
      const run $ budget_term $ engine_term $ obs_term $ report_arg
      $ design_arg $ bug_arg)

let faultsim_cmd =
  let doc =
    "Run the fault-injection campaign: mutate the designs, demand that \
     SEC/co-simulation detect every activatable fault, and report the \
     detection rate (exit 1 when the gate fails)."
  in
  let designs_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "design" ] ~docv:"DESIGN"
          ~doc:
            "Subject(s) to mutate (repeatable): alu, fir, gcd, \
             chain.brightness, chain.convolution, chain.threshold, memsys. \
             Default: all.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Fault sampling seed.")
  in
  let max_faults_arg =
    Arg.(
      value
      & opt int 16
      & info [ "max-faults" ] ~docv:"N"
          ~doc:"Structural RTL faults per subject (class-stratified sample).")
  in
  let max_slm_faults_arg =
    Arg.(
      value
      & opt int 8
      & info [ "max-slm-faults" ] ~docv:"N"
          ~doc:"Semantic SLM mutations per subject.")
  in
  let sim_vectors_arg =
    Arg.(
      value
      & opt int 400
      & info [ "vectors" ] ~docv:"N"
          ~doc:"Cross-check simulation vectors per Equivalent mutant.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable detection report to $(docv).")
  in
  let run budget designs seed max_faults max_slm_faults sim_vectors engine
      jobs timeout deadline journal_path json progress obs =
    with_obs obs @@ fun () ->
    with_interrupt @@ fun () ->
    match
      Dfv_error.guard (fun () ->
          let designs =
            match designs with [] -> Dfv_fault.Suite.names | ds -> ds
          in
          (* Explicit --jobs (any N) forces the pool; the absent default
             is the core count, except on a 1-core host with no
             --timeout, where pooling per mutant only adds overhead and
             the in-process path is behaviourally identical. *)
          let jobs, pool =
            match jobs with
            | Some n -> (n, Some true)
            | None ->
              let n = Dfv_par.Pool.cores () in
              if n = 1 && timeout = None then (1, Some false) else (n, None)
          in
          let journal =
            match journal_path with
            | None -> None
            | Some path -> (
              let key =
                Dfv_fault.Suite.campaign_key ~budget ~seed ~sim_vectors
                  ~engine ~max_rtl_faults:max_faults ~max_slm_faults ~designs
              in
              match Dfv_par.Journal.open_ ~path ~campaign:key with
              | Ok j -> Some j
              | Error m -> failwith (Printf.sprintf "journal %s: %s" path m))
          in
          Fun.protect
            ~finally:(fun () -> Option.iter Dfv_par.Journal.close journal)
          @@ fun () ->
          (match journal with
          | Some j when Dfv_par.Journal.replayed j > 0 ->
            Printf.printf "resumed: %d verdicts replayed from journal\n"
              (Dfv_par.Journal.replayed j)
          | _ -> ());
          let reports =
            Dfv_fault.Suite.run ?budget ~seed ~sim_vectors ?engine ~jobs
              ?timeout ?deadline ?journal ?pool ~exec:`Auto
              ~max_rtl_faults:max_faults ~max_slm_faults ~progress ~designs ()
          in
          if Dfv_par.Pool.stop_requested () then begin
            (match journal_path with
            | Some p ->
              Printf.eprintf "interrupted; resume with: dfv faultsim --resume %s ...\n" p
            | None ->
              Printf.eprintf
                "interrupted (no --journal, progress lost; re-run with \
                 --journal FILE to make the campaign resumable)\n");
            exit_interrupted
          end
          else begin
            List.iter (Format.printf "%a" Dfv_fault.Campaign.pp_report) reports;
            let rate, false_eq, pass =
              Dfv_fault.Suite.gate
                ~min_rate:Dfv_fault.Suite.default_min_rate reports
            in
            let shed =
              List.fold_left
                (fun acc r -> acc + r.Dfv_fault.Campaign.r_shed)
                0 reports
            in
            if shed > 0 then
              Printf.printf
                "%d mutants shed to UNKNOWN by --deadline (not counted \
                 against the gate)\n"
                shed;
            Printf.printf
              "detection rate %.1f%% (min %.0f%%), %d false equivalents: %s\n"
              (100.0 *. rate)
              (100.0 *. Dfv_fault.Suite.default_min_rate)
              false_eq
              (if pass then "PASS" else "FAIL");
            (match json with
            | Some file ->
              let oc = open_out file in
              output_string oc
                (Dfv_fault.Campaign.json_of_reports
                   ~min_rate:Dfv_fault.Suite.default_min_rate reports);
              output_char oc '\n';
              close_out oc
            | None -> ());
            if pass then exit_ok else exit_cex
          end)
    with
    | Ok code -> code
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
  in
  Cmd.v (Cmd.info "faultsim" ~doc ~exits)
    Term.(
      const run $ budget_term $ designs_arg $ seed_arg $ max_faults_arg
      $ max_slm_faults_arg $ sim_vectors_arg $ engine_term $ jobs_term
      $ timeout_term $ deadline_term $ journal_term $ json_arg $ progress_arg
      $ obs_term)

(* --- serve / client ---------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "dfv-serve.sock"
    & info [ "socket" ] ~docv:"SOCK"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let doc =
    "Run the persistent verification daemon: accept SEC, co-simulation \
     and fault-campaign requests over a Unix-domain socket (line-framed \
     JSON, see dfv client), answer repeats from a content-addressed \
     result cache keyed by structural fingerprints, and batch the \
     misses onto the worker executor.  SIGINT/SIGTERM (or a client \
     shutdown request) stop the daemon cleanly; with --store the cache \
     survives restarts — even a SIGKILL loses at most the in-flight \
     solves."
  in
  let cache_arg =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:"In-memory cache capacity in entries (LRU eviction).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "On-disk cache store: an append-only dfv-journal file, \
             fsync'd per entry, replayed into the cache at startup \
             (poisoned records are rejected and counted).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Write the dfv-serve summary artifact (per-endpoint hit \
             rates, cache counters, request log) to $(docv) on exit.")
  in
  let run socket cache store summary jobs obs =
    with_obs obs @@ fun () ->
    with_interrupt @@ fun () ->
    let resolve ~design ~bug =
      match Dfv_error.guard (fun () -> make_pair design bug) with
      | Ok p -> Ok p
      | Error e -> Error (Dfv_error.to_string e)
    in
    match
      Dfv_error.guard (fun () ->
          let cfg =
            {
              (Dfv_serve.Server.default_config ~socket) with
              Dfv_serve.Server.capacity = cache;
              store;
              summary;
              jobs = Option.value jobs ~default:(Dfv_par.Pool.cores ());
            }
          in
          Dfv_serve.Server.run ~resolve cfg)
    with
    | Ok code -> code
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(
      const run $ socket_arg $ cache_arg $ store_arg $ summary_arg
      $ jobs_term $ obs_term)

let client_cmd =
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry the connection up to $(docv) times (0.1s apart) — \
             for racing a daemon that is still starting.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Stimulus seed.")
  in
  let sec =
    let doc = "Request a SEC verdict from the daemon." in
    let run socket retries budget stats design bug =
      client_call ~socket ~retries
        (Dfv_serve.Protocol.Sec { design; bug; budget })
        (function
          | Dfv_serve.Protocol.R_sec w -> print_slm_wire ~stats w
          | _ ->
            Printf.eprintf "error: unexpected response payload\n";
            exit_error)
    in
    Cmd.v (Cmd.info "sec" ~doc ~exits)
      Term.(
        const run $ socket_arg $ retries_arg $ budget_term $ stats_arg
        $ design_arg $ bug_arg)
  in
  let sim =
    let doc = "Request a simulation comparison from the daemon." in
    let run socket retries vectors seed design bug =
      client_call ~socket ~retries
        (Dfv_serve.Protocol.Sim { design; bug; vectors; seed })
        (function
          | Dfv_serve.Protocol.R_sim w -> print_sim_wire w
          | _ ->
            Printf.eprintf "error: unexpected response payload\n";
            exit_error)
    in
    Cmd.v (Cmd.info "sim" ~doc ~exits)
      Term.(
        const run $ socket_arg $ retries_arg $ vectors_arg $ seed_arg
        $ design_arg $ bug_arg)
  in
  let faultsim =
    let doc = "Request a fault campaign from the daemon." in
    let designs_arg =
      Arg.(
        value
        & opt_all string []
        & info [ "design" ] ~docv:"DESIGN"
            ~doc:"Subject(s) to mutate (repeatable).  Default: all.")
    in
    let max_faults_arg =
      Arg.(
        value & opt int 16
        & info [ "max-faults" ] ~docv:"N"
            ~doc:"Structural RTL faults per subject.")
    in
    let max_slm_faults_arg =
      Arg.(
        value & opt int 8
        & info [ "max-slm-faults" ] ~docv:"N"
            ~doc:"Semantic SLM mutations per subject.")
    in
    let sim_vectors_arg =
      Arg.(
        value & opt int 400
        & info [ "vectors" ] ~docv:"N"
            ~doc:"Cross-check simulation vectors per Equivalent mutant.")
    in
    let json_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the returned dfv-faultsim report to $(docv).")
    in
    let run socket retries budget designs seed max_faults max_slm_faults
        sim_vectors json =
      let designs =
        match designs with [] -> Dfv_fault.Suite.names | ds -> ds
      in
      client_call ~socket ~retries
        (Dfv_serve.Protocol.Faultsim
           {
             designs;
             seed;
             max_rtl_faults = max_faults;
             max_slm_faults;
             sim_vectors;
             budget;
           })
        (function
          | Dfv_serve.Protocol.R_faultsim f ->
            (match json with
            | Some file ->
              Dfv_obs.Json.write_file file f.Dfv_serve.Protocol.f_report
            | None -> ());
            Printf.printf
              "fault detection rate %.1f%% with %d false equivalents: %s\n"
              (100.0 *. f.Dfv_serve.Protocol.f_rate)
              f.Dfv_serve.Protocol.f_false_eq
              (if f.Dfv_serve.Protocol.f_pass then "PASS" else "FAIL");
            if f.Dfv_serve.Protocol.f_pass then exit_ok else exit_cex
          | _ ->
            Printf.eprintf "error: unexpected response payload\n";
            exit_error)
    in
    Cmd.v (Cmd.info "faultsim" ~doc ~exits)
      Term.(
        const run $ socket_arg $ retries_arg $ budget_term $ designs_arg
        $ seed_arg $ max_faults_arg $ max_slm_faults_arg $ sim_vectors_arg
        $ json_arg)
  in
  let ping =
    let doc = "Liveness probe: succeed iff the daemon answers." in
    let run socket retries =
      client_call ~socket ~retries Dfv_serve.Protocol.Ping (function
        | Dfv_serve.Protocol.R_pong ->
          Printf.printf "pong\n";
          exit_ok
        | _ ->
          Printf.eprintf "error: unexpected response payload\n";
          exit_error)
    in
    Cmd.v (Cmd.info "ping" ~doc ~exits)
      Term.(const run $ socket_arg $ retries_arg)
  in
  let stats =
    let doc =
      "Fetch the daemon's live summary document (requests, per-endpoint \
       hit rates, cache counters) as one line of dfv-serve JSON."
    in
    let run socket retries =
      client_call ~socket ~retries Dfv_serve.Protocol.Stats (function
        | Dfv_serve.Protocol.R_stats s ->
          print_endline (Dfv_obs.Json.to_string s);
          exit_ok
        | _ ->
          Printf.eprintf "error: unexpected response payload\n";
          exit_error)
    in
    Cmd.v (Cmd.info "stats" ~doc ~exits)
      Term.(const run $ socket_arg $ retries_arg)
  in
  let shutdown =
    let doc = "Ask the daemon to exit cleanly (cache store stays valid)." in
    let run socket retries =
      client_call ~socket ~retries Dfv_serve.Protocol.Shutdown (function
        | Dfv_serve.Protocol.R_shutdown ->
          Printf.printf "shutdown acknowledged\n";
          exit_ok
        | _ ->
          Printf.eprintf "error: unexpected response payload\n";
          exit_error)
    in
    Cmd.v (Cmd.info "shutdown" ~doc ~exits)
      Term.(const run $ socket_arg $ retries_arg)
  in
  let doc =
    "Talk to a dfv serve daemon: sec, sim and faultsim queries plus \
     ping/stats/shutdown control.  Verify verdicts print byte-identically \
     to the corresponding local command."
  in
  Cmd.group
    (Cmd.info "client" ~doc ~exits)
    [ sec; sim; faultsim; ping; stats; shutdown ]

(* --- validate / report --------------------------------------------------- *)

let checked_schemas =
  String.concat ", "
    (List.map
       (fun (schema, reader) -> Printf.sprintf "%s by %s" schema reader)
       Dfv_artifact.Artifact.checkers)

let files_arg = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE")

(* One line or block per file, printed as it is produced; an unreadable
   path fails its own line and the rest still run. *)
let over_files f files =
  let buf = Buffer.create 4096 in
  let ok =
    List.fold_left
      (fun acc file ->
        let r = f buf file in
        print_string (Buffer.contents buf);
        Buffer.clear buf;
        r && acc)
      true files
  in
  if ok then exit_ok else exit_error

let validate_cmd =
  let doc =
    "Validate machine-readable artifacts: each FILE must be readable, \
     parse as JSON and carry the shared {\"schema\", \"version\"} \
     envelope, and its payload must pass the check of the module that \
     writes the schema: " ^ checked_schemas
    ^ ".  Other schemas pass on their envelope.  Line-framed dfv-journal \
       files are recognised by their first line.  Prints one ok or FAIL \
       line per file; exits 0 when every file passes, 3 otherwise.  CI \
       runs this over every uploaded artifact."
  in
  Cmd.v (Cmd.info "validate" ~doc ~exits)
    Term.(const (over_files Dfv_artifact.Artifact.validate) $ files_arg)

let report_cmd =
  let doc =
    "Summarize dfv JSON artifacts for humans: campaign reports (verdict \
     tallies, slowest mutants), journals (resumable progress), metrics \
     snapshots (non-zero counters, histograms, solver-time attribution), \
     merged traces (per-span time attribution, slowest spans, worker \
     pids), coverage reports (holes) and serve summaries.  Each FILE is \
     loaded and checked exactly as $(b,dfv validate) does (" ^ checked_schemas
    ^ "), so a file validate rejects fails here with the same message.  \
       Exits 0 when every file rendered, 3 otherwise."
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"List the $(docv) slowest mutants/spans and worst holes.")
  in
  let run top = over_files (Dfv_artifact.Artifact.report ~top) in
  Cmd.v (Cmd.info "report" ~doc ~exits) Term.(const run $ top_arg $ files_arg)

let triage_cmd =
  let doc =
    "Reproduce a failure and bundle the evidence: the failing transaction \
     index, its stimulus, a VCD slice around the failure cycle, and \
     metric/span/coverage snapshots.  For the bundled SEC pairs this runs \
     the verify flow (plant a bug with --bug to force a failure); for \
     memsys it injects the first RTL fault the transactor/scoreboard \
     harness flags.  Exits 1 when a bundle was produced, 0 when the \
     design verified clean."
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Fault seed (memsys triage only).")
  in
  let run budget obs report_file seed design bug =
    with_obs obs @@ fun () ->
    match
      Dfv_error.guard (fun () ->
          let bundle =
            if design = "memsys" then begin
              if bug <> "none" then
                failwith
                  "memsys triage injects its own fault; --bug is not \
                   supported";
              Dfv_fault.Suite.memsys_triage ~seed ()
            end
            else begin
              let pair = make_pair design bug in
              let report = Flow.verify ?budget pair in
              Flow.triage_of_report pair report
            end
          in
          match bundle with
          | Some t ->
            Format.printf "%a@." Dfv_obs.Triage.pp t;
            (match report_file with
            | Some file -> Dfv_obs.Triage.write_file file t
            | None -> ());
            exit_cex
          | None ->
            Printf.printf "no failure to triage\n";
            (match report_file with
            | Some file ->
              Dfv_obs.Json.write_file file (no_failure_json design)
            | None -> ());
            exit_ok)
    with
    | Ok code -> code
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
  in
  Cmd.v (Cmd.info "triage" ~doc ~exits)
    Term.(
      const run $ budget_term $ obs_term $ report_arg $ seed_arg $ design_arg
      $ bug_arg)

let () =
  Dfv_par.Pool.serve_worker ();
  let doc = "design-for-verification flows between system-level models and RTL" in
  let info = Cmd.info "dfv" ~version:"1.0.0" ~doc ~exits in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ list_cmd; audit_cmd; sec_cmd; sim_cmd; verify_cmd; faultsim_cmd;
           serve_cmd; client_cmd; triage_cmd; validate_cmd; report_cmd ])
  in
  (* cmdliner's own cli-error (124) / internal-error (125) codes fold
     into the documented "usage or internal error" code. *)
  exit (if code >= 124 then exit_error else code)
