type row = { name : string; calls : int; total_s : float; self_s : float }

(* Events of one thread nest exactly, so sorting by start (longest
   first on ties) and keeping a stack of open intervals gives each
   event its innermost enclosing parent. *)
let table ~keep events =
  let evs =
    List.filter (fun (n, _, _, _) -> keep n) events
    |> List.map (fun (n, ts, dur, _) -> (n, ts, dur))
    |> List.sort (fun (_, t1, d1) (_, t2, d2) ->
           match compare t1 t2 with 0 -> compare d2 d1 | c -> c)
    |> Array.of_list
  in
  let covered = Array.make (Array.length evs) 0. in
  let stack = ref [] in
  Array.iteri
    (fun i (_, ts, dur) ->
      let rec pop () =
        match !stack with
        | j :: rest ->
          let _, tj, dj = evs.(j) in
          if tj +. dj <= ts then begin
            stack := rest;
            pop ()
          end
        | [] -> ()
      in
      pop ();
      (match !stack with
      | j :: _ -> covered.(j) <- covered.(j) +. dur
      | [] -> ());
      stack := i :: !stack)
    evs;
  let rows = Hashtbl.create 16 in
  Array.iteri
    (fun i (n, _, dur) ->
      let c, t, s =
        Option.value (Hashtbl.find_opt rows n) ~default:(0, 0., 0.)
      in
      Hashtbl.replace rows n (c + 1, t +. dur, s +. (dur -. covered.(i))))
    evs;
  Hashtbl.fold
    (fun name (calls, t, s) acc ->
      { name; calls; total_s = t /. 1e6; self_s = s /. 1e6 } :: acc)
    rows []
  |> List.sort (fun a b -> compare b.self_s a.self_s)
