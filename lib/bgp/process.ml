type ('e, 'h) t = {
  self : Topology.vertex;
  route : 'e -> Route.t;
  adj_rib_in : (Topology.vertex, 'e) Hashtbl.t;
  rib_out : (Topology.vertex, 'h) Hashtbl.t;
  mutable best : 'e option;
}

let create self ~route =
  {
    self;
    route;
    adj_rib_in = Hashtbl.create 8;
    rib_out = Hashtbl.create 8;
    best = None;
  }

let learn p ~from e =
  if Route.contains (p.route e) p.self then Hashtbl.remove p.adj_rib_in from
  else Hashtbl.replace p.adj_rib_in from e

let forget p peer =
  Hashtbl.remove p.adj_rib_in peer;
  Hashtbl.remove p.rib_out peer

let clear p =
  Hashtbl.reset p.adj_rib_in;
  Hashtbl.reset p.rib_out;
  p.best <- None

let select p =
  Hashtbl.fold
    (fun _ e acc ->
      match acc with
      | Some cur when not (Decision.better (p.route e) (p.route cur)) -> acc
      | Some _ | None -> Some e)
    p.adj_rib_in None

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
    let skip =
      match Route.learned_from (p.route best) with Some nh -> nh | None -> -1
    in
    let pick = ref None and pick_score = ref 0 in
    Hashtbl.iter
      (fun from e ->
        if from <> skip && admit e then begin
          let s = score e in
          match !pick with
          | Some cur
            when s > !pick_score
                 || (s = !pick_score
                    && not (Decision.better (p.route e) (p.route cur))) ->
            ()
          | Some _ | None ->
            pick := Some e;
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
