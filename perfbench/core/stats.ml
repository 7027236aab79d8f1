let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.(n / 2 - 1) +. a.(n / 2)) /. 2.

(* The highest whole percentile [p] whose nearest-rank sample still has
   at least [beyond] samples above it: rank k = ceil (p n / 100) leaves
   n - k samples beyond, and p <= 100 (n - beyond) / n keeps that
   count >= beyond. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    let p = 100 * (n - beyond) / n in
    if p < 1 then None
    else
      let k = max 1 (((p * n) + 99) / 100) in
      Some (p, a.(k - 1))

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))
