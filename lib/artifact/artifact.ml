open Dfv_obs
module Journal = Dfv_par.Journal
module Campaign = Dfv_fault.Campaign
module Server = Dfv_serve.Server

let bprintf = Printf.bprintf
let take n l = List.filteri (fun i _ -> i < n) l

(* Field reads on a document its schema's check accepted.  An [Error]
   here is a check that misses a field its renderer reads. *)
let ok = function Ok x -> x | Error m -> invalid_arg ("unchecked field: " ^ m)
let str name v = ok (Json.string_field name v)
let int name v = ok (Json.int_field name v)
let num name v = ok (Json.number_field name v)
let list name v = ok (Json.list_field name v)

(* [(key, folded)] per distinct key, in first-seen order. *)
let group_by key f init items =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some acc -> Hashtbl.replace tbl k (f acc x)
      | None ->
        order := k :: !order;
        Hashtbl.add tbl k (f init x))
    items;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let by_desc key l = List.sort (fun a b -> compare (key b) (key a)) l

(* --- renderers ----------------------------------------------------------- *)

let render_faultsim ~top buf v =
  let subjects = list "subjects" v in
  List.iter
    (fun s ->
      let n name = int name s in
      bprintf buf
        "  %-18s %3d mutants: %d detected, %d survived, %d unknown, %d \
         crashed, %d false-eq%s (%.2fs)\n"
        (str "name" s) (n "total") (n "detected") (n "survived") (n "unknown")
        (n "crashed") (n "false_equivalent")
        (if n "shed" > 0 then Printf.sprintf ", %d shed" (n "shed") else "")
        (num "wall_seconds" s))
    subjects;
  bprintf buf "  detection rate %.1f%%, %d false equivalents: %s\n"
    (100.0 *. num "detection_rate" v)
    (int "false_equivalents" v)
    (if Json.field "pass" v = Some (Json.Bool true) then "PASS" else "FAIL");
  let mutants =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun f ->
            match Json.number_field "seconds" f with
            | Ok sec -> Some (sec, str "name" s, str "name" f, str "verdict" f)
            | Error _ -> None)
          (list "faults" s))
      subjects
  in
  match take top (by_desc (fun (sec, _, _, _) -> sec) mutants) with
  | [] -> ()
  | slowest ->
    bprintf buf "  slowest mutants:\n";
    List.iter
      (fun (sec, subject, name, verdict) ->
        bprintf buf "    %8.3fs  %-18s %-40s %s\n" sec subject name verdict)
      slowest

(* Only non-zero metrics are listed: a snapshot carries every registered
   name, and most of them are idle in any one run. *)
let render_metrics ~top:_ buf v =
  let cs = ref [] and gs = ref [] and hs = ref [] and zero = ref 0 in
  let keep l nonzero x = if nonzero then l := x :: !l else incr zero in
  ignore
    (Metrics.iter v
       ~counter:(fun name n -> keep cs (n <> 0) (name, n))
       ~gauge:(fun name value mx ->
         keep gs (value <> 0 || mx <> 0) (name, value, mx))
       ~histogram:(fun name count sum ->
         keep hs (count <> 0) (name, count, sum);
         fun _ _ -> ()));
  let section title rows row =
    if rows <> [] then begin
      bprintf buf "  %s:\n" title;
      List.iter row (List.rev rows)
    end
  in
  section "counters" !cs (fun (name, n) -> bprintf buf "    %-40s %d\n" name n);
  section "gauges" !gs (fun (name, value, mx) ->
      bprintf buf "    %-40s value=%d max=%d\n" name value mx);
  section "histograms" !hs (fun (name, count, sum) ->
      bprintf buf "    %-40s n=%d sum=%d mean=%.1f\n" name count sum
        (float_of_int sum /. float_of_int count));
  if !zero > 0 then bprintf buf "  %d zero-valued metrics omitted\n" !zero;
  (* Time attribution: duration-valued histograms (the [_us]/[_ns]/[_ms]
     naming convention) as shares of total solver/engine time. *)
  let unit_scale name =
    if String.ends_with ~suffix:"_ns" name then 1e-9
    else if String.ends_with ~suffix:"_us" name then 1e-6
    else 1e-3
  in
  let timed =
    List.filter_map
      (fun (name, count, sum) ->
        if Metrics.timing_metric name then
          Some (name, float_of_int sum *. unit_scale name, count)
        else None)
      (List.rev !hs)
  in
  let total = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 timed in
  if total > 0.0 then begin
    bprintf buf "  time attribution:\n";
    List.iter
      (fun (name, sec, n) ->
        bprintf buf "    %-40s %8.3fs over %d samples (%4.1f%%)\n" name sec n
          (100.0 *. sec /. total))
      (by_desc (fun (_, s, _) -> s) timed)
  end

let render_trace ~top buf v =
  let evs = list "traceEvents" v in
  let spans =
    List.filter_map
      (fun e ->
        if str "ph" e = "X" then Some (str "name" e, num "dur" e, int "pid" e)
        else None)
      evs
  in
  let pids = List.sort_uniq compare (List.map (int "pid") evs) in
  bprintf buf "  %d spans across %d process(es)%s, %d events dropped\n"
    (List.length spans) (List.length pids)
    (if pids = [] then ""
     else
       Printf.sprintf " (pids %s)"
         (String.concat ", " (List.map string_of_int pids)))
    (int "dropped" v);
  let by_name =
    group_by
      (fun (name, _, _) -> name)
      (fun (n, total, mx) (_, dur, _) -> (n + 1, total +. dur, max mx dur))
      (0, 0.0, 0.0) spans
  in
  if by_name <> [] then begin
    bprintf buf "  time per span name:\n";
    List.iter
      (fun (name, (n, total, mx)) ->
        bprintf buf "    %-40s %9.3fms over %d spans (max %.3fms)\n" name
          (total /. 1e3) n (mx /. 1e3))
      (by_desc (fun (_, (_, total, _)) -> total) by_name)
  end;
  match take top (by_desc (fun (_, dur, _) -> dur) spans) with
  | [] -> ()
  | slowest ->
    bprintf buf "  slowest spans:\n";
    List.iter
      (fun (name, dur, pid) ->
        bprintf buf "    %9.3fms  pid %-7d %s\n" (dur /. 1e3) pid name)
      slowest

let render_coverage ~top buf v =
  let holes = ref [] in
  let groups = ok (Coverage.read v) in
  List.iter
    (fun g ->
      let gname = Coverage.group_name g in
      bprintf buf "  %-30s %.1f%%\n" gname (100.0 *. Coverage.group_coverage g);
      List.iter
        (fun p ->
          let pname = Coverage.point_name p and need = Coverage.at_least p in
          bprintf buf "    %-28s %.1f%% (%d samples)\n" pname
            (100.0 *. Coverage.point_coverage p)
            (Coverage.samples p);
          List.iter
            (fun (bname, kind, hits) ->
              if kind = Coverage.Count && hits < need then
                holes :=
                  ( need - hits,
                    Printf.sprintf "%s/%s/%s" gname pname bname,
                    hits,
                    need )
                  :: !holes)
            (Coverage.bin_hits p))
        (Coverage.points g))
    groups;
  (* A run that simulated nothing (SEC-decided verify, faultsim) writes
     no group: that is no evidence, not full coverage. *)
  match (groups, List.rev !holes) with
  | [], _ -> bprintf buf "  no covergroup sampled\n"
  | _, [] -> bprintf buf "  no coverage holes\n"
  | _, holes ->
    bprintf buf "  %d coverage hole(s); worst:\n" (List.length holes);
    List.iter
      (fun (_, where, hits, need) ->
        bprintf buf "    %-50s %d/%d hits\n" where hits need)
      (take top (by_desc (fun (gap, _, _, _) -> gap) holes))

let render_generic ~top:_ buf v =
  match v with
  | Json.Obj fields ->
    List.iter
      (fun (name, f) ->
        if name <> "schema" && name <> "version" then
          match f with
          | Json.Int n -> bprintf buf "  %-30s %d\n" name n
          | Json.Float x -> bprintf buf "  %-30s %g\n" name x
          | Json.Bool b -> bprintf buf "  %-30s %b\n" name b
          | Json.String s when String.length s <= 120 ->
            bprintf buf "  %-30s %s\n" name s
          | Json.String s ->
            bprintf buf "  %-30s <%d chars>\n" name (String.length s)
          | Json.List l -> bprintf buf "  %-30s [%d items]\n" name (List.length l)
          | Json.Obj o -> bprintf buf "  %-30s {%d fields}\n" name (List.length o)
          | Json.Null -> ())
      fields
  | _ -> ()

let is_summary v = Json.field "kind" v = Some (Json.String "summary")

let render_serve ~top buf v =
  if not (is_summary v) then render_generic ~top buf v
  else begin
    bprintf buf "  %d request(s)\n" (int "requests" v);
    (match list "endpoints" v with
    | [] -> ()
    | eps ->
      bprintf buf "  endpoints:\n";
      List.iter
        (fun e ->
          bprintf buf
            "    %-10s %4d requests: %d hits (%.1f%% hit rate), %d misses, \
             %d solves, %d errors, mean %.3fs\n"
            (str "op" e) (int "requests" e) (int "hits" e)
            (100.0 *. num "hit_rate" e)
            (int "misses" e) (int "solves" e) (int "errors" e)
            (num "mean_seconds" e))
        eps);
    let c = Option.get (Json.field "cache" v) in
    let h = int "hits" c and m = int "misses" c in
    bprintf buf
      "  cache: %d/%d entries, %d hits / %d misses (%.1f%% hit rate), %d \
       evicted, %d replayed, %d rejected\n"
      (int "size" c) (int "capacity" c) h m
      (if h + m = 0 then 0.0
       else 100.0 *. float_of_int h /. float_of_int (h + m))
      (int "evicted" c) (int "replayed" c) (int "rejected" c);
    bprintf buf "  uptime %.1fs\n" (num "uptime_seconds" v);
    match list "log" v with
    | [] -> ()
    | log ->
      bprintf buf "  request log (%d entries%s):\n" (List.length log)
        (if Json.field "log_truncated" v = Some (Json.Bool true) then
           ", truncated"
         else "");
      List.iter
        (fun (status, n) -> bprintf buf "    %-30s %d\n" status n)
        (group_by (str "status") (fun n _ -> n + 1) 0 log);
      bprintf buf "  slowest requests:\n";
      List.iter
        (fun e ->
          bprintf buf "    %8.3fs  %-10s %s%s\n" (num "seconds" e) (str "op" e)
            (str "status" e)
            (if Json.field "cached" e = Some (Json.Bool true) then " (cached)"
             else ""))
        (take top (by_desc (num "seconds") log))
  end

(* Campaign journals tally their verdicts; other payloads (serve store
   entries) are only counted. *)
let render_journal (i : Journal.info) note ~top:_ buf =
  bprintf buf "  %d result record(s)%s\n" i.info_records note;
  List.iter
    (fun (label, n) -> bprintf buf "    %-30s %d\n" label n)
    (group_by Fun.id
       (fun n _ -> n + 1)
       0
       (List.filter_map
          (fun p ->
            Result.to_option (Campaign.result_of_json p)
            |> Option.map (fun r -> Campaign.verdict_label r.Campaign.verdict))
          i.info_payloads))

(* --- the schema table ---------------------------------------------------- *)

(* A check yields validate's parenthesised summary of what it accepted. *)
let plain check v = Result.map (fun () -> "") (check v)

let check_trace v =
  Trace.check v
  |> Result.map (fun () ->
         Printf.sprintf " (%d events)" (List.length (list "traceEvents" v)))

let check_serve v =
  Server.check v
  |> Result.map (fun () ->
         if is_summary v then
           Printf.sprintf " (summary: %d requests, %d endpoints)"
             (int "requests" v)
             (List.length (list "endpoints" v))
         else "")

(* The bench harness is an executable, so no library owns its envelope;
   the par_speedup executor rows are what CI gates read. *)
let check_bench v =
  match Json.field "experiment" v with
  | Some (Json.String "par_speedup") -> (
    match Json.field "modes" v with
    | Some (Json.List []) -> Error "modes is empty"
    | Some (Json.List rows) ->
      let row_ok row =
        Result.is_ok (Json.string_field "mode" row)
        && Result.is_ok (Json.int_field "cores" row)
        && Result.is_ok (Json.number_field "speedup" row)
      in
      if List.for_all row_ok rows then
        Ok (Printf.sprintf " (%d executor rows)" (List.length rows))
      else Error "modes rows need string mode, int cores, numeric speedup"
    | Some _ -> Error "modes is not an array"
    | None -> Error "par_speedup is missing modes")
  | _ -> Ok ""

(* Schema, the reader that checks it, the check, the renderer.  Any
   other enveloped schema passes on its envelope alone. *)
let table =
  [ ("dfv-metrics", "Metrics.check", plain Metrics.check, render_metrics);
    ("dfv-coverage", "Coverage.check", plain Coverage.check, render_coverage);
    ("dfv-trace", "Trace.check", check_trace, render_trace);
    ( "dfv-faultsim",
      "Campaign.check_report",
      plain Campaign.check_report,
      render_faultsim );
    ("dfv-serve", "Server.check", check_serve, render_serve);
    ("dfv-bench", "its par_speedup rows", check_bench, render_generic) ]

let checkers =
  ("dfv-journal", "Journal.inspect")
  :: List.map (fun (schema, reader, _, _) -> (schema, reader)) table

(* --- the loader ---------------------------------------------------------- *)

(* [Ok (schema and version, validate's summary, renderer)].  A journal is
   line-framed JSON, not one document: it is recognised by its first
   line and checked record by record. *)
let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error m -> Error ("cannot read: " ^ m)
  | contents -> (
    let first_line =
      match String.index_opt contents '\n' with
      | Some i -> String.sub contents 0 i
      | None -> contents
    in
    match Result.map Json.envelope_of (Json.parse first_line) with
    | Ok (Some ("dfv-journal", version)) ->
      Journal.inspect file
      |> Result.map (fun (i : Journal.info) ->
             let note =
               (if i.info_dropped > 0 then
                  Printf.sprintf ", %d duplicates dropped" i.info_dropped
                else "")
               ^ if i.info_torn then ", torn tail" else ""
             in
             ( Printf.sprintf "dfv-journal v%d" version,
               Printf.sprintf " (%d records%s)" i.info_records note,
               render_journal i note ))
    | _ -> (
      match Json.parse contents with
      | Error m -> Error ("parse error: " ^ m)
      | Ok v -> (
        match Json.envelope_of v with
        | None -> Error "missing {schema, version} envelope"
        | Some (schema, version) -> (
          let check, render =
            match List.find_opt (fun (s, _, _, _) -> s = schema) table with
            | Some (_, _, check, render) -> (check, render)
            | None -> (plain (fun _ -> Ok ()), render_generic)
          in
          match check v with
          | Ok detail ->
            Ok
              ( Printf.sprintf "%s v%d" schema version,
                detail,
                fun ~top buf -> render ~top buf v )
          | Error m -> Error (schema ^ ": " ^ m)))))

let validate buf file =
  match load file with
  | Ok (header, detail, _) ->
    bprintf buf "%-40s ok    %s%s\n" file header detail;
    true
  | Error m ->
    bprintf buf "%-40s FAIL  %s\n" file m;
    false

let report ~top buf file =
  match load file with
  | Ok (header, _, render) ->
    bprintf buf "%s — %s\n" file header;
    render ~top buf;
    Buffer.add_char buf '\n';
    true
  | Error m ->
    bprintf buf "%s — FAIL %s\n\n" file m;
    false
