(* Tests for the schema table behind [dfv validate] and [dfv report]:
   every artifact dfv writes passes and renders, corrupted ones are
   rejected with the owning module's reason, and report fails exactly
   those files with validate's message. *)

open Dfv_obs
module Artifact = Dfv_artifact.Artifact
module Campaign = Dfv_fault.Campaign
module Journal = Dfv_par.Journal
module Protocol = Dfv_serve.Protocol

let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let fresh_dir () =
  let d = Filename.temp_file "dfv_artifact" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let write dir name s =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  path

let validate file =
  let buf = Buffer.create 256 in
  let ok = Artifact.validate buf file in
  (ok, Buffer.contents buf)

let report file =
  let buf = Buffer.create 1024 in
  let ok = Artifact.report ~top:3 buf file in
  (ok, Buffer.contents buf)

(* One artifact of every kind the repository writes, all produced by
   the modules that write them in the field. *)
let written_artifacts dir =
  let json name v = write dir name (Json.to_string v ^ "\n") in
  let metrics = json "metrics.json" (Metrics.snapshot ()) in
  let coverage =
    Coverage.isolate_domain ();
    Fun.protect ~finally:Coverage.release_domain @@ fun () ->
    let p =
      Coverage.point (Coverage.group "artifact") "x" ~at_least:2
        [ Coverage.bin "low" ~lo:0 ~hi:3;
          Coverage.bin "high" ~lo:4 ~hi:7;
          Coverage.bin ~kind:Coverage.Illegal "bad" ~lo:8 ~hi:8 ]
    in
    List.iter (Coverage.sample p) [ 1; 2; 5 ];
    json "coverage.json" (Coverage.domain_snapshot ())
  in
  let trace =
    Fun.protect ~finally:Trace.disable @@ fun () ->
    Trace.enable ();
    Trace.with_span "outer" (fun () -> Trace.with_span "inner" ignore);
    Trace.instant "tick";
    json "trace.json" (Trace.to_json ())
  in
  let triage =
    Triage.make ~design:"unit" ~kind:"sec-counterexample" ()
    |> Triage.to_json |> json "triage.json"
  in
  let journal = Filename.concat dir "campaign.jsonl" in
  let campaign =
    let j = Result.get_ok (Journal.open_ ~path:journal ~campaign:"artifact") in
    let t = Dfv_designs.Alu.make ~width:8 () in
    let r =
      Campaign.run ~journal:j ~max_rtl_faults:2 ~max_slm_faults:1
        (Campaign.Sec_pair
           (Dfv_core.Pair.create ~name:"alu" ~slm:t.Dfv_designs.Alu.slm
              ~rtl:t.Dfv_designs.Alu.rtl ~spec:t.Dfv_designs.Alu.spec))
    in
    Journal.close j;
    write dir "faultsim.json" (Campaign.json_of_reports ~min_rate:0.95 [ r ])
  in
  (* A daemon run leaves its summary and its store journal behind. *)
  let socket = Filename.concat dir "s.sock" in
  let store = Filename.concat dir "store.journal" in
  let summary = Filename.concat dir "summary.json" in
  let pid = Test_serve.start_server ~store ~summary socket in
  let c = Test_serve.connect socket in
  ignore
    (Test_serve.call c
       (Protocol.Sec { design = "gcd"; bug = "none"; budget = None }));
  ignore (Test_serve.call c Protocol.Shutdown);
  Dfv_serve.Client.close c;
  Alcotest.(check int) "daemon exits cleanly" 0 (Test_serve.wait_exit pid);
  [ metrics; coverage; trace; triage; campaign; journal; summary; store ]

let test_written_artifacts_pass () =
  let files = written_artifacts (fresh_dir ()) in
  List.iter
    (fun file ->
      let ok, line = validate file in
      check_bool ("validate passes: " ^ line) true ok;
      check_bool "one ok line" true (contains ~needle:" ok    dfv-" line);
      let ok, out = report file in
      check_bool ("report renders: " ^ out) true ok;
      check_bool "report names the schema" true
        (String.starts_with ~prefix:(file ^ " — dfv-") out))
    files;
  let _, out = report (List.nth files 5) in
  check_bool "campaign journal tallies its verdicts" true
    (contains ~needle:"detected" out);
  let _, out = report (List.nth files 1) in
  check_bool "coverage hole below at_least reported" true
    (contains ~needle:"artifact/x/high" out)

(* Corrupted samples, each with the reason the owning reader gives. *)
let corrupted dir =
  let summary =
    {|{"schema":"dfv-serve","version":1,"kind":"summary","requests":0,"endpoints":[],"uptime_seconds":0,"log":[]}|}
  in
  [ ( write dir "counter.json"
        {|{"schema":"dfv-metrics","version":1,"counters":{"a":"x"},"gauges":{},"histograms":{}}|},
      "dfv-metrics: malformed counter a" );
    ( write dir "groups.json" {|{"schema":"dfv-coverage","version":1,"groups":5}|},
      "dfv-coverage: missing groups" );
    ( write dir "event.json"
        {|{"schema":"dfv-trace","version":1,"traceEvents":[{"name":"x","pid":1}],"dropped":0}|},
      {|dfv-trace: event 0: missing string field "ph"|} );
    ( write dir "faultsim.json"
        {|{"schema":"dfv-faultsim","version":1,"detection_rate":1,"false_equivalents":0,"pass":true}|},
      {|dfv-faultsim: missing list field "subjects"|} );
    (write dir "summary.json" summary, {|dfv-serve: missing object field "cache"|});
    ( write dir "bench.json"
        {|{"schema":"dfv-bench","version":1,"experiment":"par_speedup","modes":[]}|},
      "dfv-bench: modes is empty" );
    ( write dir "journal.jsonl"
        ({|{"schema":"dfv-journal","version":1,"kind":"header","campaign":"c"}|}
       ^ "\ngarbage\n{}\n"),
      "corrupt journal" );
    (write dir "text.json" "not json", "parse error");
    (write dir "bare.json" {|{"a":1}|}, "missing {schema, version} envelope");
    (dir, "cannot read") ]

let test_corrupted_artifacts_fail () =
  List.iter
    (fun (file, reason) ->
      let ok, line = validate file in
      check_bool ("validate rejects " ^ file) false ok;
      check_bool ("FAIL line: " ^ line) true
        (contains ~needle:("FAIL  " ^ reason) line))
    (corrupted (fresh_dir ()))

let test_report_fails_with_validate_message () =
  List.iter
    (fun (file, _) ->
      let _, line = validate file in
      let marker = " FAIL  " in
      let i =
        let rec find i =
          if String.sub line i (String.length marker) = marker then i
          else find (i + 1)
        in
        find 0 + String.length marker
      in
      let message = String.sub line i (String.length line - i) in
      let ok, out = report file in
      check_bool ("report rejects " ^ file) false ok;
      check_string "validate's message" (file ^ " — FAIL " ^ message ^ "\n") out)
    (corrupted (fresh_dir ()))

let test_report_omits_zero_metrics () =
  let file =
    write (fresh_dir ()) "m.json"
      {|{"schema":"dfv-metrics","version":1,"counters":{"busy":3,"idle":0},"gauges":{"g":{"value":0,"max":0}},"histograms":{"h":{"count":0,"sum":0,"buckets":[]}}}|}
  in
  let ok, out = report file in
  check_bool "renders" true ok;
  check_bool "non-zero counter listed" true (contains ~needle:"busy" out);
  check_bool "zero counter omitted" false (contains ~needle:"idle" out);
  check_bool "omitted count" true
    (contains ~needle:"3 zero-valued metrics omitted" out)

(* A coverage file with no group (what a run that simulated nothing
   writes) reports that no covergroup was sampled, not full coverage. *)
let test_report_empty_coverage () =
  let file =
    write (fresh_dir ()) "c.json"
      {|{"schema":"dfv-coverage","version":1,"groups":[]}|}
  in
  let ok, out = report file in
  check_bool "renders" true ok;
  check_bool "says nothing was sampled" true
    (contains ~needle:"no covergroup sampled" out);
  check_bool "claims no full coverage" false
    (contains ~needle:"no coverage holes" out)

let suite =
  [ Alcotest.test_case "written artifacts pass" `Quick
      test_written_artifacts_pass;
    Alcotest.test_case "corrupted artifacts fail" `Quick
      test_corrupted_artifacts_fail;
    Alcotest.test_case "report fails as validate" `Quick
      test_report_fails_with_validate_message;
    Alcotest.test_case "report omits zero metrics" `Quick
      test_report_omits_zero_metrics;
    Alcotest.test_case "report empty coverage" `Quick
      test_report_empty_coverage ]
