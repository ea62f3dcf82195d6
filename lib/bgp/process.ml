type ('e, 'h) t = {
  self : Topology.vertex;
  route : 'e -> Route.t;
  adj_rib_in : 'e option array;
  rib_out : 'h option array;
  mutable best : 'e option;
}

let create self ~degree ~route =
  {
    self;
    route;
    adj_rib_in = Array.make degree None;
    rib_out = Array.make degree None;
    best = None;
  }

let learn p ~slot e =
  p.adj_rib_in.(slot) <-
    (if Route.contains (p.route e) p.self then None else Some e)

let withdraw p ~slot = p.adj_rib_in.(slot) <- None

let forget p ~slot =
  p.adj_rib_in.(slot) <- None;
  p.rib_out.(slot) <- None

let clear p =
  Array.fill p.adj_rib_in 0 (Array.length p.adj_rib_in) None;
  Array.fill p.rib_out 0 (Array.length p.rib_out) None;
  p.best <- None

let select p =
  Array.fold_left
    (fun acc entry ->
      match (entry, acc) with
      | None, _ -> acc
      | Some e, Some cur when not (Decision.better (p.route e) (p.route cur)) ->
        acc
      | Some _, _ -> entry)
    None p.adj_rib_in

let next_hop p =
  match p.best with None -> None | Some e -> Route.learned_from (p.route e)

let decide ?prefix p core best' =
  if best' = p.best then false
  else begin
    let old_next = next_hop p in
    let cause =
      match (p.best, best') with
      | _, None -> "route-loss"
      | None, Some _ -> "route-learned"
      | Some _, Some _ -> "route-change"
    in
    p.best <- best';
    Session_core.note_decision core ~node:p.self ~old_next
      ~new_next:(next_hop p)
      ~cause:(match prefix with None -> cause | Some s -> s ^ cause);
    true
  end

let alternate ?(admit = fun _ -> true) p ~score =
  match p.best with
  | None -> None
  | Some best ->
    (* an entry's path starts at the neighbour it was learned from *)
    let first_hop e = match (p.route e).as_path with nh :: _ -> nh | [] -> -1 in
    let skip = first_hop best in
    let pick = ref None and pick_score = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some e as entry ->
          if first_hop e <> skip && admit e then begin
            let s = score e in
            match !pick with
            | Some cur
              when s > !pick_score
                   || (s = !pick_score
                      && not (Decision.better (p.route e) (p.route cur))) ->
              ()
            | Some _ | None ->
              pick := entry;
              pick_score := s
          end)
      p.adj_rib_in;
    !pick

let exportable p ~to_ ~to_rel =
  match p.best with
  | Some e -> begin
    let r = p.route e in
    match r.as_path with
    | nh :: _ when nh = to_ -> false
    | _ -> Export.exportable r ~to_rel
  end
  | None -> false

let export p ~to_ ~to_rel =
  match p.best with
  | Some e when exportable p ~to_ ~to_rel ->
    Some (p.self :: (p.route e).as_path)
  | Some _ | None -> None

let hop_up links v (r : Route.t) =
  match r.as_path with
  | nh :: _ when Link_state.link_up links v nh -> nh
  | _ -> -1

let next_hop_up p links =
  match p.best with None -> -1 | Some e -> hop_up links p.self (p.route e)

let table procs : Static_route.table =
  Array.map
    (fun p ->
      match p.best with
      | None -> None
      | Some e ->
        let r = p.route e in
        Some { Static_route.as_path = r.as_path; cls = r.cls })
    procs
