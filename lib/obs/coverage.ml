type kind = Count | Ignore_bin | Illegal

type bin = { b_name : string; b_lo : int; b_hi : int; b_kind : kind }

type point = {
  pt_name : string;
  pt_bins : bin array;
  pt_hits : int array;
  pt_at_least : int;
  mutable pt_illegal : int;
  mutable pt_misses : int;
  mutable pt_samples : int;
}

type group = { grp_name : string; mutable grp_points : point list (* rev *) }

(* Registries keep insertion order so snapshots are stable. *)
type registry_t = {
  tbl : (string, group) Hashtbl.t;
  mutable order : group list; (* rev *)
}

let fresh_registry () = { tbl = Hashtbl.create 8; order = [] }
let registry = fresh_registry ()

(* Cold-path guard: worker domains may find-or-create groups by name
   while the main domain snapshots.  Points and samples only touch the
   group/point records the caller already holds — under domain
   isolation those live in the domain's own shadow, so the hot sampling
   path needs no lock. *)
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Domain-local shadow registries, mirroring {!Metrics}: a {!Dfv_par.Dpool}
   worker domain resolves covergroups into its own private registry so
   each job's coverage is a clean delta, merged back on the coordinating
   domain through {!merge}. *)
let shadows_active = Atomic.make 0

let shadow_key : registry_t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shadow () =
  if Atomic.get shadows_active = 0 then None else Domain.DLS.get shadow_key

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let bin ?(kind = Count) name ~lo ~hi =
  if hi < lo then invalid_arg "Coverage.bin: hi < lo";
  { b_name = name; b_lo = lo; b_hi = hi; b_kind = kind }

let group_in r name =
  match Hashtbl.find_opt r.tbl name with
  | Some g -> g
  | None ->
    let g = { grp_name = name; grp_points = [] } in
    Hashtbl.add r.tbl name g;
    r.order <- g :: r.order;
    g

let group name =
  match shadow () with
  | Some r -> group_in r name
  | None -> with_lock (fun () -> group_in registry name)

let point g name ?(at_least = 1) bins =
  match List.find_opt (fun p -> p.pt_name = name) g.grp_points with
  | Some p -> p
  | None ->
    if at_least < 1 then invalid_arg "Coverage.point: at_least must be >= 1";
    let p =
      {
        pt_name = name;
        pt_bins = Array.of_list bins;
        pt_hits = Array.make (List.length bins) 0;
        pt_at_least = at_least;
        pt_illegal = 0;
        pt_misses = 0;
        pt_samples = 0;
      }
    in
    g.grp_points <- p :: g.grp_points;
    p

let sample p v =
  p.pt_samples <- p.pt_samples + 1;
  let n = Array.length p.pt_bins in
  let rec find i =
    if i >= n then p.pt_misses <- p.pt_misses + 1
    else begin
      let b = p.pt_bins.(i) in
      if v >= b.b_lo && v <= b.b_hi then begin
        p.pt_hits.(i) <- p.pt_hits.(i) + 1;
        match b.b_kind with
        | Count | Ignore_bin -> ()
        | Illegal ->
          p.pt_illegal <- p.pt_illegal + 1;
          Trace.instant ~cat:"coverage"
            ~args:
              [ ("point", Json.String p.pt_name);
                ("bin", Json.String b.b_name);
                ("value", Json.Int v) ]
            "coverage.illegal"
      end
      else find (i + 1)
    end
  in
  find 0

let bin_hits p =
  Array.to_list
    (Array.mapi
       (fun i b -> (b.b_name, b.b_kind, p.pt_hits.(i)))
       p.pt_bins)

let illegal_count p = p.pt_illegal
let miss_count p = p.pt_misses
let samples p = p.pt_samples

let point_coverage p =
  let total = ref 0 and covered = ref 0 in
  Array.iteri
    (fun i b ->
      if b.b_kind = Count then begin
        Stdlib.incr total;
        if p.pt_hits.(i) >= p.pt_at_least then Stdlib.incr covered
      end)
    p.pt_bins;
  if !total = 0 then 1.0 else float_of_int !covered /. float_of_int !total

let group_coverage g =
  match g.grp_points with
  | [] -> 1.0
  | ps ->
    List.fold_left (fun acc p -> acc +. point_coverage p) 0.0 ps
    /. float_of_int (List.length ps)

let group_name g = g.grp_name
let points g = List.rev g.grp_points
let point_name p = p.pt_name
let at_least p = p.pt_at_least
let groups () = List.rev registry.order

let reset () =
  Hashtbl.iter
    (fun _ g ->
      List.iter
        (fun p ->
          Array.fill p.pt_hits 0 (Array.length p.pt_hits) 0;
          p.pt_illegal <- 0;
          p.pt_misses <- 0;
          p.pt_samples <- 0)
        g.grp_points)
    registry.tbl

let clear () =
  Hashtbl.reset registry.tbl;
  registry.order <- []

let kind_string = function
  | Count -> "count"
  | Ignore_bin -> "ignore"
  | Illegal -> "illegal"

let kind_of_string = function
  | "count" -> Some Count
  | "ignore" -> Some Ignore_bin
  | "illegal" -> Some Illegal
  | _ -> None

let point_json p =
  Json.Obj
    [ ("name", Json.String p.pt_name);
      ("samples", Json.Int p.pt_samples);
      ("at_least", Json.Int p.pt_at_least);
      ("coverage", Json.Float (point_coverage p));
      ("illegal_hits", Json.Int p.pt_illegal);
      ("misses", Json.Int p.pt_misses);
      ( "bins",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i b ->
                  Json.Obj
                    [ ("name", Json.String b.b_name);
                      ("kind", Json.String (kind_string b.b_kind));
                      ("lo", Json.Int b.b_lo);
                      ("hi", Json.Int b.b_hi);
                      ("hits", Json.Int p.pt_hits.(i)) ])
                p.pt_bins)) ) ]

let group_json g =
  Json.Obj
    [ ("name", Json.String g.grp_name);
      ("coverage", Json.Float (group_coverage g));
      ("points", Json.List (List.map point_json (points g))) ]

let snapshot_of r =
  Json.envelope ~schema:"dfv-coverage" ~version:1
    [ ("groups", Json.List (List.map group_json (List.rev r.order))) ]

let snapshot () = snapshot_of registry

(* --- domain-local isolation (the in-process worker protocol) ----------- *)

let isolate_domain () =
  (match Domain.DLS.get shadow_key with
  | Some _ -> invalid_arg "Coverage.isolate_domain: already isolated"
  | None -> ());
  Domain.DLS.set shadow_key (Some (fresh_registry ()));
  Atomic.incr shadows_active

let domain_snapshot () =
  match Domain.DLS.get shadow_key with
  | Some r -> snapshot_of r
  | None -> invalid_arg "Coverage.domain_snapshot: not isolated"

let release_domain () =
  match Domain.DLS.get shadow_key with
  | Some _ ->
    Domain.DLS.set shadow_key None;
    Atomic.decr shadows_active
  | None -> ()

(* -- the wire form ------------------------------------------------------ *)

(* Decode one point of a snapshot into an unregistered point carrying
   the shipped hit counts: the bins are rebuilt from their descriptors,
   so a reader needs no prior registration. *)
let point_of_json pj =
  let ( let* ) = Result.bind in
  let* name = Json.string_field "name" pj in
  let* bins = Json.list_field "bins" pj in
  let bin_of_json bj =
    let* bname = Json.string_field "name" bj in
    let* k = Json.string_field "kind" bj in
    let* lo = Json.int_field "lo" bj in
    let* hi = Json.int_field "hi" bj in
    let* hits = Json.int_field "hits" bj in
    match kind_of_string k with
    | Some kind when hi >= lo -> Ok (bin ~kind bname ~lo ~hi, hits)
    | _ -> Error "bad bin"
  in
  match List.map bin_of_json bins with
  | descr when List.for_all Result.is_ok descr ->
    let descr = List.map Result.get_ok descr in
    let count f = Result.value ~default:0 (Json.int_field f pj) in
    Ok
      {
        pt_name = name;
        pt_bins = Array.of_list (List.map fst descr);
        pt_hits = Array.of_list (List.map snd descr);
        pt_at_least = max 1 (count "at_least");
        pt_illegal = count "illegal_hits";
        pt_misses = count "misses";
        pt_samples = count "samples";
      }
  | _ -> Error ("malformed bin in point " ^ name)

(* Fold a decoded point into a group: a new name adopts it as is, a
   known one sums its counts bin by bin.  Merging never re-emits
   illegal-hit trace instants — the worker already recorded those when
   it sampled. *)
let merge_point g wp =
  match List.find_opt (fun p -> p.pt_name = wp.pt_name) g.grp_points with
  | None ->
    g.grp_points <- wp :: g.grp_points;
    Ok ()
  | Some p when Array.length p.pt_bins <> Array.length wp.pt_bins ->
    Error ("bin shape mismatch in point " ^ wp.pt_name)
  | Some p ->
    Array.iteri (fun i h -> p.pt_hits.(i) <- p.pt_hits.(i) + h) wp.pt_hits;
    p.pt_illegal <- p.pt_illegal + wp.pt_illegal;
    p.pt_misses <- p.pt_misses + wp.pt_misses;
    p.pt_samples <- p.pt_samples + wp.pt_samples;
    Ok ()

(* The one reader of the snapshot wire form, behind {!merge}, {!read}
   and {!check}: [group] resolves each group by name, every point is
   decoded and folded into it.  The first error is reported; the
   well-formed points after it are still folded. *)
let walk ~group j =
  match Json.envelope_of j with
  | Some ("dfv-coverage", 1) -> (
    match Json.field "groups" j with
    | Some (Json.List gs) ->
      let first = ref (Ok ()) in
      let note r = if Result.is_ok !first then first := r in
      List.iter
        (fun gj ->
          match (Json.string_field "name" gj, Json.field "points" gj) with
          | Ok gname, Some (Json.List ps) ->
            let g = group gname in
            List.iter
              (fun pj -> note (Result.bind (point_of_json pj) (merge_point g)))
              ps
          | _ -> note (Error "malformed group"))
        gs;
      !first
    | _ -> Error "missing groups")
  | _ -> Error "not a dfv-coverage v1 snapshot"

let merge j =
  walk ~group j |> Result.map_error (fun m -> "Coverage.merge: " ^ m)

let read j =
  let r = fresh_registry () in
  walk ~group:(group_in r) j |> Result.map (fun () -> List.rev r.order)

let check j = Result.map ignore (read j)
