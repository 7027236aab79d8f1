(* Tests of the benchmark's own logic: the tail-percentile rule,
   fail_frac accounting, the metric-name grammar, the result line's JSON
   and the self-time table. *)
module Stats = Perfbench_core.Stats
module Line = Perfbench_core.Line
module Selftime = Perfbench_core.Selftime
module Catalog = Perfbench_core.Catalog
module Json = Dfv_obs.Json

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "geomean" 10. (Stats.geomean [ 1.; 100. ])

let test_tail_rule () =
  Alcotest.(check (option (pair int (float 0.)))) "10 samples: none" None
    (Stats.tail (floats 10));
  Alcotest.(check (option (pair int (float 0.)))) "11 samples" (Some (9, 1.))
    (Stats.tail (floats 11));
  Alcotest.(check (option (pair int (float 0.)))) "100 samples" (Some (90, 90.))
    (Stats.tail (floats 100));
  Alcotest.(check (option (pair int (float 0.)))) "1000 samples" (Some (99, 990.))
    (Stats.tail (floats 1000));
  (* For every size: at least 10 samples lie beyond the reported value,
     and the next whole percentile would leave fewer. *)
  for n = 11 to 1500 do
    match Stats.tail (floats n) with
    | None -> Alcotest.failf "n=%d: no tail" n
    | Some (p, v) ->
      let beyond = n - int_of_float v in
      if beyond < 10 then Alcotest.failf "n=%d: %d beyond p%d" n beyond p;
      let k' = (((p + 1) * n) + 99) / 100 in
      if p < 100 && n - k' >= 10 then Alcotest.failf "n=%d: p%d is not the highest" n p
  done

let test_fail_frac () =
  let t a f = { Line.attempted = a; failed = f } in
  Alcotest.(check (float 0.)) "clean" 0. (Line.fail_frac (t 18 0));
  Alcotest.(check (float 0.)) "quarter" 0.25 (Line.fail_frac (t 4 1));
  Alcotest.(check (float 0.)) "nothing attempted counts as failed" 1.
    (Line.fail_frac Line.zero);
  let sum = Line.add (t 10 1) (t 30 1) in
  Alcotest.(check (pair int int)) "add" (40, 2) (sum.Line.attempted, sum.Line.failed);
  Alcotest.(check bool) "correct" true (Line.correct (t 5 0));
  Alcotest.(check bool) "a failure is not correct" false (Line.correct (t 5 1));
  Alcotest.(check bool) "an empty run is not correct" false (Line.correct Line.zero)

let test_name_grammar () =
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (Line.valid_name n);
      Alcotest.(check bool) ("unit " ^ u) true (Line.valid_unit u))
    (Catalog.end_to_end @ Catalog.per_layer);
  List.iter
    (fun n -> Alcotest.(check bool) ("reject " ^ n) false (Line.valid_name n))
    [ ""; ".sat"; "_x"; "sat solve"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) ("reject unit " ^ u) false (Line.valid_unit u))
    [ ""; "m s"; String.make 17 's' ]

(* The catalog and BENCHMARK.json declare the same metrics, in order. *)
let test_catalog_matches_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let spec = match Json.parse text with Ok j -> j | Error m -> Alcotest.fail m in
  let declared key =
    match Json.field key spec with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.field "name" m, Json.field "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> Alcotest.fail "metric without name or unit")
        l
    | _ -> Alcotest.failf "no %s list" key
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Catalog.end_to_end
    (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Catalog.per_layer
    (declared "per_layer")

let test_line_parses () =
  let metrics =
    [ { Line.name = "setup_s"; value = 0.81270000000000001; unit_ = "s" };
      { Line.name = "ops_per_s"; value = 1. /. 3.; unit_ = "1/s" };
      { Line.name = "sat.props_per_s"; value = 1.5e-7; unit_ = "1/s" };
      { Line.name = "fail_frac"; value = 0.; unit_ = "ratio" } ]
  in
  let line = Line.render { Line.attempted = 1000; failed = 0 } metrics in
  match Json.parse line with
  | Error m -> Alcotest.fail m
  | Ok (Json.Obj fields as j) ->
    Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields);
    Alcotest.(check bool) "correct" true (Json.field "correct" j = Some (Json.Bool true));
    let m = Option.get (Json.field "metrics" j) in
    List.iter
      (fun (x : Line.metric) ->
        let entry = Option.get (Json.field x.Line.name m) in
        let v =
          match Json.field "value" entry with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> Alcotest.fail "no value"
        in
        Alcotest.(check (float 0.)) ("every digit of " ^ x.Line.name) x.Line.value v;
        Alcotest.(check bool) "unit" true
          (Json.field "unit" entry = Some (Json.String x.Line.unit_)))
      metrics
  | Ok _ -> Alcotest.fail "not an object"

let test_line_rejects () =
  let t = { Line.attempted = 1; failed = 0 } in
  let bad ms =
    match Line.render t ms with
    | _ -> Alcotest.fail "accepted"
    | exception Invalid_argument _ -> ()
  in
  bad [ { Line.name = "x y"; value = 1.; unit_ = "s" } ];
  bad [ { Line.name = "x"; value = Float.nan; unit_ = "s" } ];
  bad [ { Line.name = "x"; value = 1.; unit_ = "s" }; { Line.name = "x"; value = 2.; unit_ = "s" } ]

let test_selftime () =
  let ev name ts dur = (name, ts, dur, 0) in
  let rows =
    Selftime.table
      ~keep:(fun n -> n <> "other")
      [ ev "a" 10. 30.; ev "root" 0. 100.; ev "b" 20. 10.; ev "c" 50. 10.;
        ev "c" 70. 5.; ev "other" 80. 10. ]
  in
  let self n = (List.find (fun r -> r.Selftime.name = n) rows).Selftime.self_s in
  Alcotest.(check (float 1e-12)) "root" (55e-6) (self "root");
  Alcotest.(check (float 1e-12)) "a" (20e-6) (self "a");
  Alcotest.(check (float 1e-12)) "b" (10e-6) (self "b");
  Alcotest.(check (float 1e-12)) "c" (15e-6) (self "c");
  Alcotest.(check int) "c calls" 2
    (List.find (fun r -> r.Selftime.name = "c") rows).Selftime.calls

let () =
  Alcotest.run "perfbench"
    [ ( "logic",
        [ Alcotest.test_case "median and geomean" `Quick test_median;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "fail_frac accounting" `Quick test_fail_frac;
          Alcotest.test_case "metric-name grammar" `Quick test_name_grammar;
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick
            test_catalog_matches_benchmark_json;
          Alcotest.test_case "result line parses" `Quick test_line_parses;
          Alcotest.test_case "result line rejects" `Quick test_line_rejects;
          Alcotest.test_case "self time" `Quick test_selftime ] ) ]
