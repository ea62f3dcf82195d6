type t = { sorted : float array }

let of_samples xs =
  if xs = [] then invalid_arg "Cdf.of_samples: empty sample";
  let sorted = Array.of_list xs in
  Array.sort compare sorted;
  { sorted }

let size t = Array.length t.sorted

(* Number of samples <= x, via binary search for the rightmost index with
   sorted.(i) <= x. *)
let count_le t x =
  let a = t.sorted in
  let n = Array.length a in
  let rec loop lo hi =
    (* invariant: all indices < lo are <= x; all >= hi are > x *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then loop (mid + 1) hi else loop lo mid
  in
  loop 0 n

let eval t x = float_of_int (count_le t x) /. float_of_int (size t)

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Cdf.quantile: q out of [0,1]";
  let n = size t in
  let k = int_of_float (Float.ceil (q *. float_of_int n)) in
  let k = if k <= 0 then 1 else if k > n then n else k in
  t.sorted.(k - 1)

let points t =
  let n = size t in
  let rec loop i acc =
    if i < 0 then acc
    else
      let v = t.sorted.(i) in
      (* keep only the last occurrence of each distinct value *)
      let acc =
        match acc with
        | (v', _) :: _ when v' = v -> acc
        | _ -> (v, float_of_int (i + 1) /. float_of_int n) :: acc
      in
      loop (i - 1) acc
  in
  loop (n - 1) []

let mean t =
  Array.fold_left ( +. ) 0. t.sorted /. float_of_int (size t)

let fraction_at_most = eval
