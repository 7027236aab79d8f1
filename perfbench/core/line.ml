type metric = { name : string; value : float; unit_ : string }
type tally = { attempted : int; failed : int }

let zero = { attempted = 0; failed = 0 }

let add a b =
  { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let fail_frac t =
  if t.attempted = 0 then 1.0
  else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.attempted > 0 && t.failed = 0

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* Full precision: the shortest of %.15g/%.17g that reads back exactly. *)
let number f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let render tally metrics =
  let seen = Hashtbl.create 64 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (correct tally) tally.attempted tally.failed);
  List.iteri
    (fun i m ->
      if not (valid_name m.name) then
        invalid_arg ("Line.render: bad metric name " ^ m.name);
      if not (valid_unit m.unit_) then
        invalid_arg ("Line.render: bad unit " ^ m.unit_);
      if not (Float.is_finite m.value) then
        invalid_arg ("Line.render: non-finite value for " ^ m.name);
      if Hashtbl.mem seen m.name then
        invalid_arg ("Line.render: duplicate metric " ^ m.name);
      Hashtbl.add seen m.name ();
      if i > 0 then Buffer.add_string buf ", ";
      Dfv_obs.Json.escape_to_buffer buf m.name;
      Buffer.add_string buf ": {\"value\": ";
      Buffer.add_string buf (number m.value);
      Buffer.add_string buf ", \"unit\": ";
      Dfv_obs.Json.escape_to_buffer buf m.unit_;
      Buffer.add_string buf "}")
    metrics;
  Buffer.add_string buf "}}";
  Buffer.contents buf
