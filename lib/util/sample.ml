let uniform st ~lo ~hi =
  if hi < lo then invalid_arg "Sample.uniform: hi < lo";
  lo +. Random.State.float st (hi -. lo)

let choose st a =
  if Array.length a = 0 then invalid_arg "Sample.choose: empty array";
  a.(Random.State.int st (Array.length a))

let weighted_index st w =
  let total = Array.fold_left ( +. ) 0. w in
  if total <= 0. then invalid_arg "Sample.weighted_index: non-positive sum";
  Array.iter
    (fun x -> if x < 0. then invalid_arg "Sample.weighted_index: negative weight")
    w;
  let r = Random.State.float st total in
  let rec loop i acc =
    if i = Array.length w - 1 then i
    else
      let acc = acc +. w.(i) in
      if r < acc then i else loop (i + 1) acc
  in
  loop 0 0.

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick_distinct st k a =
  let n = Array.length a in
  if k > n then invalid_arg "Sample.pick_distinct: k > length";
  let copy = Array.copy a in
  (* partial Fisher–Yates: the first k slots end up uniformly distinct *)
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.to_list (Array.sub copy 0 k)
