type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean = function
  | [] -> nan
  | xs ->
    let sum = List.fold_left ( +. ) 0. xs in
    sum /. float_of_int (List.length xs)

let variance = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sq /. float_of_int (List.length xs)

let stddev xs = sqrt (variance xs)

let percentile p xs =
  if xs = [] then invalid_arg "Stat.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stat.percentile: p out of [0,100]";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let median xs = percentile 50. xs

let summarize xs =
  if xs = [] then invalid_arg "Stat.summarize: empty sample";
  {
    n = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = List.fold_left Float.min infinity xs;
    max = List.fold_left Float.max neg_infinity xs;
    median = median xs;
  }
