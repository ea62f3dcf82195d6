type cause = Link of Topology.vertex * Topology.vertex | Node of Topology.vertex

type msg =
  | Announce of { path : Topology.vertex list; rci : cause option }
  | Withdraw of { rci : cause option }
  | Failover of { path : Topology.vertex list option; rci : cause option }
      (** [path = None] withdraws a previously advertised failover path *)

type router = {
  v : Topology.vertex;
  mutable best : Route.t option;
  adj_rib_in : (Topology.vertex, Route.t) Hashtbl.t;
  failover_rib : (Topology.vertex, Topology.vertex list) Hashtbl.t;
      (** failover paths received: advertiser → pinned path starting at the
          advertiser *)
  rib_out : (Topology.vertex, Topology.vertex list) Hashtbl.t;
  mutable failover_out : (Topology.vertex * Topology.vertex list) option;
      (** (receiver, path) of our currently advertised failover path *)
  mutable withdrawn : Route.t option;
      (** the last best route after it was withdrawn: R-BGP keeps
          forwarding along it until an alternative is learned *)
  export_deny : (Topology.vertex, unit) Hashtbl.t;
  mutable known_causes : cause list;
  mutable last_cause : cause option;
}

type t = {
  core : msg Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  rci : bool;
  routers : router array;
}

let sim t = Session_core.sim t.core
let dest t = t.dest

let rel_exn t u v =
  match Topology.rel t.topo u v with
  | Some r -> r
  | None -> invalid_arg "Rbgp_net: vertices not adjacent"

let cause_equal a b =
  match (a, b) with
  | Link (u, v), Link (u', v') -> (u = u' && v = v') || (u = v' && v = u')
  | Node n, Node n' -> n = n'
  | (Link _ | Node _), _ -> false

(* Whether a stored AS path (owner excluded) traverses the failed element.
   For a link cause the two endpoints must be consecutive in the path. *)
let path_hits_cause path cause =
  match cause with
  | Node n -> List.mem n path
  | Link (u, v) ->
    let rec scan = function
      | a :: (b :: _ as rest) ->
        ((a = u && b = v) || (a = v && b = u)) || scan rest
      | [] | [ _ ] -> false
    in
    scan path

(* --- primary-route advertisement (shared Session_core skeleton) ------ *)

let rec advertise_to t r n =
  let desired =
    match r.best with
    | Some b
      when Route.learned_from b <> Some n
           && Export.exportable b ~to_rel:(rel_exn t r.v n)
           && not (Hashtbl.mem r.export_deny n) ->
      Some (r.v :: b.as_path)
    | Some _ | None -> None
  in
  Session_core.advertise t.core ~src:r.v ~dst:n ~rib_out:r.rib_out ~desired
    ~announce:(fun path -> Announce { path; rci = r.last_cause })
    ~withdraw:(fun () -> Withdraw { rci = r.last_cause })
    ~retry:(fun () -> advertise_to t r n)
    ()

(* --- failover-path advertisement ------------------------------------ *)

(* Most disjoint alternate: fewest shared vertices with the best path
   (the destination is shared by all candidates, so it never affects the
   ranking), then the decision order. The recipient must not appear in the
   alternate. *)
let pick_failover r (best : Route.t) ~recipient =
  let shared (alt : Route.t) =
    List.length
      (List.filter (fun x -> List.mem x best.as_path) alt.Route.as_path)
  in
  Hashtbl.fold
    (fun from (alt : Route.t) acc ->
      if Some from = Route.learned_from best || List.mem recipient alt.as_path
      then acc
      else
        match acc with
        | None -> Some alt
        | Some cur ->
          let s = shared alt and sc = shared cur in
          if s < sc || (s = sc && Decision.better alt cur) then Some alt
          else acc)
    r.adj_rib_in None

let update_failover t r =
  let desired =
    match r.best with
    | None -> None
    | Some b -> begin
      match Route.learned_from b with
      | None -> None (* destination itself *)
      | Some nh -> begin
        match pick_failover r b ~recipient:nh with
        | None -> None
        | Some alt -> Some (nh, r.v :: alt.Route.as_path)
      end
    end
  in
  match (desired, r.failover_out) with
  | None, None -> ()
  | Some d, Some cur when d = cur -> ()
  | _ ->
    (* withdraw from the previous receiver if it changes or disappears *)
    (match r.failover_out with
    | Some (prev, _)
      when (match desired with Some (n, _) -> n <> prev | None -> true)
           && Session_core.link_up t.core r.v prev ->
      Session_core.send t.core ~src:r.v ~dst:prev ~kind:`Withdraw
        (Failover { path = None; rci = r.last_cause })
    | Some _ | None -> ());
    (match desired with
    | Some (n, p)
      when Session_core.link_up t.core r.v n
           && not (Hashtbl.mem r.export_deny n) ->
      Session_core.send t.core ~src:r.v ~dst:n ~kind:`Announce
        (Failover { path = Some p; rci = r.last_cause })
    | Some _ | None -> ());
    r.failover_out <- desired

let advertise_all t r =
  Array.iter (fun (n, _) -> advertise_to t r n) (Topology.neighbors t.topo r.v);
  update_failover t r

(* --- RCI purge ------------------------------------------------------- *)

let learn_cause t r cause =
  if t.rci && not (List.exists (cause_equal cause) r.known_causes) then begin
    r.known_causes <- cause :: r.known_causes;
    let purge tbl =
      let stale =
        Hashtbl.fold
          (fun from path acc ->
            if path_hits_cause path cause then from :: acc else acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) stale
    in
    let stale_routes =
      Hashtbl.fold
        (fun from (rt : Route.t) acc ->
          if path_hits_cause rt.as_path cause then from :: acc else acc)
        r.adj_rib_in []
    in
    List.iter (Hashtbl.remove r.adj_rib_in) stale_routes;
    Session_core.touch_fwd t.core;
    purge r.failover_rib;
    (match r.withdrawn with
    | Some (w : Route.t) when path_hits_cause w.as_path cause ->
      r.withdrawn <- None
    | Some _ | None -> ())
  end;
  r.last_cause <- Some cause

let recompute t r =
  let best' =
    if r.v = t.dest then Some Route.origin else Decision.select_tbl r.adj_rib_in
  in
  if best' <> r.best then begin
    let old_next = Option.bind r.best Route.learned_from in
    let cause =
      match (r.best, best') with
      | _, None -> "route-loss"
      | None, Some _ -> "route-learned"
      | Some _, Some _ -> "route-change"
    in
    (match (r.best, best') with
    | Some old, None -> r.withdrawn <- Some old
    | _, Some _ -> r.withdrawn <- None
    | None, None -> ());
    r.best <- best';
    Session_core.note_decision t.core ~node:r.v ~old_next
      ~new_next:(Option.bind best' Route.learned_from)
      ~cause;
    advertise_all t r
  end
  else update_failover t r

let receive t r ~from msg =
  if Session_core.node_up t.core r.v then begin
    let rci =
      match msg with
      | Announce { rci; _ } | Withdraw { rci } | Failover { rci; _ } -> rci
    in
    (match rci with Some c -> learn_cause t r c | None -> ());
    (match msg with
    | Announce { path; _ } ->
      let stale =
        t.rci && List.exists (fun c -> path_hits_cause path c) r.known_causes
      in
      if List.mem r.v path || stale then Hashtbl.remove r.adj_rib_in from
      else
        Hashtbl.replace r.adj_rib_in from
          { Route.as_path = path; cls = rel_exn t r.v from }
    | Withdraw _ -> Hashtbl.remove r.adj_rib_in from
    | Failover { path = None; _ } ->
      Session_core.touch_fwd t.core;
      Hashtbl.remove r.failover_rib from
    | Failover { path = Some p; _ } ->
      Session_core.touch_fwd t.core;
      let stale =
        t.rci && List.exists (fun c -> path_hits_cause p c) r.known_causes
      in
      if stale then Hashtbl.remove r.failover_rib from
      else Hashtbl.replace r.failover_rib from p);
    recompute t r
  end

let create sim topo ~dest ~rci ?(mrai_base = 30.) ?(delay_lo = 0.010)
    ?(delay_hi = 0.020) ?(detect_delay = 0.) ?(trace = Trace.null) () =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Rbgp_net.create: bad destination";
  let routers =
    Array.init n (fun v ->
        {
          v;
          best = None;
          adj_rib_in = Hashtbl.create 8;
          failover_rib = Hashtbl.create 4;
          rib_out = Hashtbl.create 8;
          failover_out = None;
          withdrawn = None;
          export_deny = Hashtbl.create 2;
          known_causes = [];
          last_cause = None;
        })
  in
  let core =
    Session_core.create ~mrai_base ~delay_lo ~delay_hi ~detect_delay ~trace
      ~who:"Rbgp_net" sim topo
  in
  let t = { core; topo; dest; rci; routers } in
  Session_core.on_receive core (fun ~src ~dst msg ->
      receive t t.routers.(dst) ~from:src msg);
  t

let start t = recompute t t.routers.(t.dest)

let drop_session t u v =
  let ru = t.routers.(u) and rv = t.routers.(v) in
  Session_core.touch_fwd t.core;
  Hashtbl.remove ru.adj_rib_in v;
  Hashtbl.remove ru.rib_out v;
  Hashtbl.remove ru.failover_rib v;
  (match ru.failover_out with
  | Some (n, _) when n = v -> ru.failover_out <- None
  | Some _ | None -> ());
  Hashtbl.remove rv.adj_rib_in u;
  Hashtbl.remove rv.rib_out u;
  Hashtbl.remove rv.failover_rib u;
  match rv.failover_out with
  | Some (n, _) when n = u -> rv.failover_out <- None
  | Some _ | None -> ()

let fail_link t u v =
  Session_core.fail_link t.core u v ~react:(fun () ->
      drop_session t u v;
      let cause = Link (u, v) in
      (* adjacent ASes know the root cause by local detection, with or
         without the RCI protocol extension; [learn_cause] only purges under
         RCI *)
      t.routers.(u).last_cause <- Some cause;
      t.routers.(v).last_cause <- Some cause;
      learn_cause t t.routers.(u) cause;
      learn_cause t t.routers.(v) cause;
      recompute t t.routers.(u);
      recompute t t.routers.(v))

let recover_link t u v =
  Session_core.recover_link t.core u v ~react:(fun () ->
      drop_session t u v;
      (* recovered links clear the corresponding root cause: routes through
         the link are valid again. [last_cause] must go too, or
         re-announcements would carry the stale cause and re-poison every
         receiver. *)
      let cause = Link (u, v) in
      let clear_cause r =
        r.known_causes <-
          List.filter (fun c -> not (cause_equal c cause)) r.known_causes;
        match r.last_cause with
        | Some c when cause_equal c cause -> r.last_cause <- None
        | Some _ | None -> ()
      in
      Array.iter clear_cause t.routers;
      advertise_to t t.routers.(u) v;
      advertise_to t t.routers.(v) u;
      update_failover t t.routers.(u);
      update_failover t t.routers.(v))

let fail_node t v =
  Session_core.fail_node t.core v;
  let r = t.routers.(v) in
  Hashtbl.reset r.adj_rib_in;
  Hashtbl.reset r.rib_out;
  Hashtbl.reset r.failover_rib;
  r.failover_out <- None;
  r.best <- None;
  let cause = Node v in
  Array.iter
    (fun (n, _) ->
      let rn = t.routers.(n) in
      Hashtbl.remove rn.adj_rib_in v;
      Hashtbl.remove rn.rib_out v;
      Hashtbl.remove rn.failover_rib v;
      (match rn.failover_out with
      | Some (x, _) when x = v -> rn.failover_out <- None
      | Some _ | None -> ());
      learn_cause t rn cause;
      recompute t rn)
    (Topology.neighbors t.topo v)

let recover_node t v =
  Session_core.recover_node t.core v;
  let r = t.routers.(v) in
  (* the returning router restarts with a clean slate *)
  r.known_causes <- [];
  r.last_cause <- None;
  r.withdrawn <- None;
  (* the node's root cause clears everywhere: paths through it are valid
     again (including stale [last_cause] stamps, which would otherwise
     travel on re-announcements and re-poison receivers) *)
  let cause = Node v in
  Array.iter
    (fun rn ->
      rn.known_causes <-
        List.filter (fun c -> not (cause_equal c cause)) rn.known_causes;
      match rn.last_cause with
      | Some c when cause_equal c cause -> rn.last_cause <- None
      | Some _ | None -> ())
    t.routers;
  (* re-originates if [v] is the destination; otherwise waits for
     neighbours to re-announce *)
  recompute t r;
  Array.iter
    (fun (n, _) ->
      advertise_to t t.routers.(n) v;
      advertise_to t r n;
      update_failover t t.routers.(n))
    (Topology.neighbors t.topo v)

let deny_export t v n =
  Session_core.check_adjacent t.core ~op:"deny_export" v n;
  Hashtbl.replace t.routers.(v).export_deny n ();
  advertise_to t t.routers.(v) n;
  update_failover t t.routers.(v)

let allow_export t v n =
  Session_core.check_adjacent t.core ~op:"allow_export" v n;
  Hashtbl.remove t.routers.(v).export_deny n;
  advertise_to t t.routers.(v) n;
  update_failover t t.routers.(v)

let best t v = t.routers.(v).best

let failover_choices t v =
  Hashtbl.fold (fun from p acc -> (from, p) :: acc) t.routers.(v).failover_rib []
  |> List.sort compare
  |> List.map snd

(* A pinned failover path delivers iff every hop is alive. *)
let pinned_alive t path =
  let links = Session_core.links t.core in
  let rec scan = function
    | a :: (b :: _ as rest) -> Link_state.link_up links a b && scan rest
    | [ x ] -> Link_state.node_up links x
    | [] -> true
  in
  scan path

(* One packet state; a step returns the next hop itself as its code. *)
let walk_fresh t =
  let links = Session_core.links t.core in
  let hop v (route : Route.t option) =
    match route with
    | Some { Route.as_path = nh :: _; _ } when Link_state.link_up links v nh
      ->
      nh
    | Some _ | None -> -1
  in
  let step v _ =
    if not (Link_state.node_up links v) then Fwd_walk.drop
    else begin
      let r = t.routers.(v) in
      let primary = hop v r.best in
      if primary >= 0 then primary
      else
        (* keep forwarding along the withdrawn route until an alternative
           or a root cause invalidates it *)
        let stale = hop v r.withdrawn in
        if stale >= 0 then stale
        else begin
          (* Deflect onto a stored failover path. The router picks the
             lowest-numbered advertiser that is still reachable — it cannot
             know whether the rest of the pinned path is alive. Under RCI,
             stale failover paths were purged, so the pick is trustworthy;
             without RCI the packet follows a possibly dead path and is
             lost. *)
          let from =
            Hashtbl.fold
              (fun from _ acc ->
                if (acc < 0 || from < acc) && Link_state.link_up links v from
                then from
                else acc)
              r.failover_rib (-1)
          in
          if from >= 0 && pinned_alive t (Hashtbl.find r.failover_rib from)
          then Fwd_walk.deliver
          else Fwd_walk.drop
        end
    end
  in
  Fwd_walk.walk_all
    ~n:(Topology.num_vertices t.topo)
    ~dest:t.dest ~num_states:1
    ~start:(fun _ -> 0)
    ~step

let walk_all t = Session_core.cached_walk t.core walk_fresh t
let touch_fwd t = Session_core.touch_fwd t.core

let message_count t = Session_core.message_count t.core
let last_change t = Session_core.last_change t.core
let counters t = Session_core.counters t.core

let to_table t : Static_route.table =
  Array.map
    (fun r ->
      match r.best with
      | None -> None
      | Some (b : Route.t) ->
        Some { Static_route.as_path = b.as_path; cls = b.cls })
    t.routers
