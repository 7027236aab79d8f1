(* faultsim_many: Suite.run with no fault caps on alu, gcd,
   chain.brightness, chain.threshold and memsys, at jobs = nproc on the
   default `Auto executor with the journal on, one seed per pass.
   Mutants take milliseconds each, so dispatch, ship, merge and the
   journal's fsync per append are a visible share of the wall clock.
   fir and chain.convolution are left out on purpose: their SEC proofs
   would bury the pool, and sec_mix already has them. *)
open Common
module Suite = Dfv_fault.Suite
module Campaign = Dfv_fault.Campaign
module Fault = Dfv_fault.Fault
module Journal = Dfv_par.Journal
open Dfv_designs

let designs = [ "alu"; "gcd"; "chain.brightness"; "chain.threshold"; "memsys" ]
let sim_vectors = 400

type env = {
  ctx : ctx;
  subjects : (Dfv_rtl.Netlist.elaborated * Dfv_hwir.Ast.program option) list;
      (** the roster's RTL and SLM, as Suite.run builds them *)
  mutable last : (int * string * Campaign.report list) option;
  mutable seeds : int list;  (** seeds of the passes run, latest first *)
  references : (int, (string * string * string) list) Hashtbl.t;
      (** verdict transcripts of sequential runs, by seed *)
}

let subjects () =
  let alu = Alu.make ~width:8 () and gcd = Gcd.make ~width:4 in
  let chain = Image_chain.make () in
  let block b = (Image_chain.block_rtl chain b, Some (Image_chain.block_slm chain b)) in
  [ (alu.Alu.rtl, Some alu.Alu.slm); (gcd.Gcd.rtl, Some gcd.Gcd.slm);
    block Image_chain.Brightness; block Image_chain.Threshold;
    (Memsys.rtl_simple Memsys.default_config, None) ]

let setup ctx =
  { ctx; subjects = subjects (); last = None; seeds = []; references = Hashtbl.create 4 }
let teardown _ = ()
let peak_rss_mb _ = Common.peak_rss_mb "self"
let traced_passes = 2
let before_traced _ = ()
(* Passes cycle through [distinct_seeds] campaign seeds, so the
   sequential reference run each check compares against is computed
   once per seed and reused. *)
let distinct_seeds = 4
let pass_seed env k = Random.State.bits (rng env.ctx (3000 + (k mod distinct_seeds)))

let key seed =
  Suite.campaign_key ~budget:None ~seed ~sim_vectors ~engine:None
    ~max_rtl_faults:max_int ~max_slm_faults:max_int ~designs

let run_suite ?journal ~jobs seed =
  Suite.run ~seed ~sim_vectors ~jobs ~exec:`Auto ?journal ~max_rtl_faults:max_int
    ~max_slm_faults:max_int ~designs ()

let transcript reports =
  List.concat_map
    (fun (r : Campaign.report) ->
      List.map
        (fun (m : Campaign.mutant_result) ->
          (r.Campaign.r_subject, m.Campaign.m_name, Campaign.verdict_label m.Campaign.verdict))
        r.Campaign.r_results)
    reports

let bad (m : Campaign.mutant_result) =
  match m.Campaign.verdict with
  | Campaign.Crashed _ | Campaign.False_equivalent _ -> true
  | Campaign.Detected _ | Campaign.Survived _ | Campaign.Unknown _ -> false

let pass env k =
  let seed = pass_seed env k in
  let path = Filename.concat env.ctx.out (Printf.sprintf "faultsim-%d.journal" k) in
  remove path;
  env.seeds <- seed :: env.seeds;
  let forks = counter "pool.exec.fork" in
  let reports, t0, dt =
    timed_at (fun () ->
        span "fault.suite" (fun () ->
            match Journal.open_ ~path ~campaign:(key seed) with
            | Error m -> failwith ("journal: " ^ m)
            | Ok j ->
              Fun.protect
                ~finally:(fun () -> Journal.close j)
                (fun () -> run_suite ~journal:j ~jobs:nproc seed)))
  in
  env.last <- Some (seed, path, reports);
  let results = List.concat_map (fun r -> r.Campaign.r_results) reports in
  let n = List.length results in
  let tally f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  (* The transcript must match a sequential in-process run of the same
     seed; every differing mutant counts as failed. *)
  let check () =
    let b =
      match Hashtbl.find_opt env.references seed with
      | Some t -> t
      | None ->
        let t = transcript (span "fault.reference" (fun () -> run_suite ~jobs:1 seed)) in
        Hashtbl.replace env.references seed t;
        t
    in
    let a = transcript reports in
    if List.length a <> List.length b then n
    else List.fold_left2 (fun acc x y -> if x = y then acc else acc + 1) 0 a b
  in
  (* The benchmark never forks: `Auto must have picked domains. *)
  let forked = counter "pool.exec.fork" > forks in
  ( {
      ops = n;
      failed = (if forked then n else List.length (List.filter bad results));
      calls = [ ("suite", t0, dt) ];
      sums =
        [ ("fault.mutants", float_of_int n);
          ("fault.detected", float_of_int (tally (fun r -> r.Campaign.r_detected)));
          ("fault.survived", float_of_int (tally (fun r -> r.Campaign.r_survived))) ];
    },
    check )

(* Fault.enumerate_rtl/enumerate_slm over the suite's subjects. *)
let enumerate env seed =
  snd
    (timed (fun () ->
         List.iter
           (fun (rtl, slm) ->
             ignore (Fault.enumerate_rtl ~seed ~max_faults:max_int rtl);
             Option.iter
               (fun p -> ignore (Fault.enumerate_slm ~seed ~max_faults:max_int p))
               slm)
           env.subjects))

(* Journal.append of the campaign's own records into a scratch journal,
   and Journal.open_ of the finished campaign journal (the resume path). *)
let journal_probe env =
  match env.last with
  | None -> (0., 0.)
  | Some (seed, path, reports) ->
    let scratch = Filename.concat env.ctx.out "faultsim-scratch.journal" in
    remove scratch;
    let records =
      List.concat_map
        (fun (r : Campaign.report) ->
          List.map
            (fun m ->
              ( Journal.fingerprint (r.Campaign.r_subject ^ "/" ^ m.Campaign.m_name),
                Campaign.result_to_json m ))
            r.Campaign.r_results)
        reports
    in
    let append_us =
      match Journal.open_ ~path:scratch ~campaign:"perfbench-scratch" with
      | Error m -> failwith ("journal: " ^ m)
      | Ok j ->
        let (), dt =
          timed (fun () -> List.iter (fun (fp, v) -> Journal.append j ~fp v) records)
        in
        Journal.close j;
        remove scratch;
        1e6 *. dt /. float_of_int (max 1 (List.length records))
    in
    let replay_s =
      snd
        (timed (fun () ->
             match Journal.open_ ~path ~campaign:(key seed) with
             | Ok j -> Journal.close j
             | Error m -> failwith ("journal replay: " ^ m)))
    in
    (append_us, replay_s)

let layers env ~passes ~calls:_ ~deltas:_ ~wall =
  let s k = List.fold_left (fun acc p -> acc +. get p.sums k) 0. passes in
  let enum_s =
    List.fold_left
      (fun acc seed -> acc +. enumerate env seed)
      0.
      (List.filteri (fun i _ -> i < List.length passes) env.seeds)
  in
  let append_us, replay_s = journal_probe env in
  [ ("faultsim.mutants_per_s", s "fault.mutants" /. wall);
    ("fault.enumerate_s", enum_s); ("fault.mutants", s "fault.mutants");
    ("fault.detected", s "fault.detected"); ("fault.survived", s "fault.survived");
    ("par.job_overhead_us", Common.job_overhead_us ()); ("journal.append_us", append_us);
    ("journal.replay_s", replay_s) ]
