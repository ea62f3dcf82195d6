type ('e, 'h) t = {
  self : Topology.vertex;
  route : 'e -> Route.t;
  flag : 'e -> bool;
  adj_rib_in : 'e option array;
  rib_out : 'h option array;
  mutable best : 'e option;
  mutable top : int;
  mutable flagged : int;
}

(* [top] on an empty RIB, and when [select] must rescan *)
let empty = -1
let stale = -2

let create ?(flag = fun _ -> false) self ~degree ~route =
  {
    self;
    route;
    flag;
    adj_rib_in = Array.make degree None;
    rib_out = Array.make degree None;
    best = None;
    top = empty;
    flagged = 0;
  }

let beats p a b = Decision.better (p.route a) (p.route b)

let flags p = function Some e when p.flag e -> 1 | Some _ | None -> 0

(* Every Adj-RIB-In write: keeps [flagged] counting. *)
let set p slot entry =
  p.flagged <- p.flagged - flags p p.adj_rib_in.(slot) + flags p entry;
  p.adj_rib_in.(slot) <- entry

let withdraw p ~slot =
  set p slot None;
  if p.top = slot then p.top <- stale

let learn p ~slot e =
  if Route.contains (p.route e) p.self then withdraw p ~slot
  else begin
    (* only the new entry is compared with the cached best: [better] is a
       total order over distinct next hops *)
    (if p.top = empty then p.top <- slot
     else if p.top >= 0 then
       match p.adj_rib_in.(p.top) with
       | Some b when p.top = slot -> if beats p b e then p.top <- stale
       | Some b -> if beats p e b then p.top <- slot
       | None -> ());
    set p slot (Some e)
  end

let forget p ~slot =
  withdraw p ~slot;
  p.rib_out.(slot) <- None

let clear p =
  Array.fill p.adj_rib_in 0 (Array.length p.adj_rib_in) None;
  Array.fill p.rib_out 0 (Array.length p.rib_out) None;
  p.best <- None;
  p.top <- empty;
  p.flagged <- 0

let purge p ~drop =
  Array.iteri
    (fun slot -> function
      | Some e when drop e -> withdraw p ~slot
      | Some _ | None -> ())
    p.adj_rib_in

let entry p ~slot = p.adj_rib_in.(slot)

let select p =
  if p.top = stale then begin
    p.top <- empty;
    for i = 0 to Array.length p.adj_rib_in - 1 do
      match p.adj_rib_in.(i) with
      | Some e
        when p.top = empty || beats p e (Option.get p.adj_rib_in.(p.top)) ->
        p.top <- i
      | Some _ | None -> ()
    done
  end;
  if p.top = empty then None else p.adj_rib_in.(p.top)

let next_hop p =
  match p.best with
  | Some e -> ( match (p.route e).as_path with nh :: _ -> nh | [] -> -1)
  | None -> -1

let decide ~prefix p core best' =
  if best' == p.best || best' = p.best then false
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
      ~new_next:(next_hop p) ~prefix ~cause;
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
                   || (s = !pick_score && not (beats p e cur)) ->
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

(* The neighbour hears [self :: as_path] of the best route: whether it
   heard that already is read off the RIB-Out tail, physically first. *)
let advertise p core ~slot ~to_ ~to_rel ~deny =
  let heard = p.rib_out.(slot) in
  let wants = (not deny) && exportable p ~to_ ~to_rel in
  let same =
    match (heard, p.best) with
    | Some (_ :: h), Some e ->
      let path = (p.route e).as_path in
      h == path || h = path
    | _ -> false
  in
  let verdict =
    Session_core.advertise core ~proc:0 ~src:p.self ~slot
      ~heard:(Option.is_some heard) ~wants ~same
  in
  (match verdict with
  | Announce ->
    p.rib_out.(slot) <- Some (p.self :: (p.route (Option.get p.best)).as_path)
  | Withdraw -> p.rib_out.(slot) <- None
  | Idle | Deferred -> ());
  verdict

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
