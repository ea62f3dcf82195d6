let better (a : Route.t) (b : Route.t) =
  let pa = Relationship.local_pref a.cls and pb = Relationship.local_pref b.cls in
  if pa <> pb then pa > pb
  else
    let la = a.length and lb = b.length in
    if la <> lb then la < lb
    else
      (* lowest next hop; the origin's own route (empty path) wins *)
      match (a.as_path, b.as_path) with
      | [], _ -> true
      | _ :: _, [] -> false
      | x :: _, y :: _ -> x < y

let select = function
  | [] -> None
  | r :: rest ->
    Some (List.fold_left (fun acc r -> if better r acc then r else acc) r rest)
