type msg = Announce of Topology.vertex list | Withdraw

type router = {
  v : Topology.vertex;
  mutable best : Route.t option;
  adj_rib_in : (Topology.vertex, Route.t) Hashtbl.t;
  rib_out : (Topology.vertex, Topology.vertex list) Hashtbl.t;
  export_deny : (Topology.vertex, unit) Hashtbl.t;
      (** neighbours this router's policy currently forbids exporting to *)
}

type t = {
  core : msg Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  routers : router array;
  mutable route_changes : int;
}

let sim t = Session_core.sim t.core
let topology t = t.topo
let dest t = t.dest

let rel_exn t u v =
  match Topology.rel t.topo u v with
  | Some r -> r
  | None -> invalid_arg "Bgp_net: vertices not adjacent"

(* --- advertisement: policy on top of the shared skeleton ------------- *)

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
    ~announce:(fun p -> Announce p)
    ~withdraw:(fun () -> Withdraw)
    ~retry:(fun () -> advertise_to t r n)
    ()

let advertise_all t r =
  Array.iter (fun (n, _) -> advertise_to t r n) (Topology.neighbors t.topo r.v)

(* --- decision ------------------------------------------------------ *)

(* Why the old and new best differed, for the trace. *)
let decision_cause ~old_best ~new_best =
  match (old_best, new_best) with
  | _, None -> "route-loss"
  | None, Some _ -> "route-learned"
  | Some _, Some _ -> "route-change"

let recompute t r =
  let best' =
    if r.v = t.dest then Some Route.origin else Decision.select_tbl r.adj_rib_in
  in
  if best' <> r.best then begin
    let old_next = Option.bind r.best Route.learned_from in
    let cause = decision_cause ~old_best:r.best ~new_best:best' in
    r.best <- best';
    Session_core.note_decision t.core ~node:r.v ~old_next
      ~new_next:(Option.bind best' Route.learned_from)
      ~cause;
    t.route_changes <- t.route_changes + 1;
    advertise_all t r
  end

(* --- receiving ----------------------------------------------------- *)

let receive t r ~from msg =
  if Session_core.node_up t.core r.v then begin
    (match msg with
    | Announce path ->
      if List.mem r.v path then
        (* own AS in path: discard, dropping any previous route from the
           peer (implicit withdraw) *)
        Hashtbl.remove r.adj_rib_in from
      else
        Hashtbl.replace r.adj_rib_in from
          { Route.as_path = path; cls = rel_exn t r.v from }
    | Withdraw -> Hashtbl.remove r.adj_rib_in from);
    recompute t r
  end

(* --- construction -------------------------------------------------- *)

let create sim topo ~dest ?(mrai_base = 30.) ?(delay_lo = 0.010)
    ?(delay_hi = 0.020) ?(detect_delay = 0.) ?(trace = Trace.null) () =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Bgp_net.create: bad destination";
  let routers =
    Array.init n (fun v ->
        {
          v;
          best = None;
          adj_rib_in = Hashtbl.create 8;
          rib_out = Hashtbl.create 8;
          export_deny = Hashtbl.create 2;
        })
  in
  let core =
    Session_core.create ~mrai_base ~delay_lo ~delay_hi ~detect_delay ~trace
      ~who:"Bgp_net" sim topo
  in
  let t = { core; topo; dest; routers; route_changes = 0 } in
  Session_core.on_receive core (fun ~src ~dst msg ->
      receive t t.routers.(dst) ~from:src msg);
  t

let start t = recompute t t.routers.(t.dest)

(* --- failures ------------------------------------------------------ *)

let drop_session t u v =
  let ru = t.routers.(u) and rv = t.routers.(v) in
  Hashtbl.remove ru.adj_rib_in v;
  Hashtbl.remove ru.rib_out v;
  Hashtbl.remove rv.adj_rib_in u;
  Hashtbl.remove rv.rib_out u

let fail_link t u v =
  Session_core.fail_link t.core u v ~react:(fun () ->
      drop_session t u v;
      recompute t t.routers.(u);
      recompute t t.routers.(v))

let recover_link t u v =
  Session_core.recover_link t.core u v ~react:(fun () ->
      drop_session t u v;
      (* session re-establishes: each side advertises its current best *)
      advertise_to t t.routers.(u) v;
      advertise_to t t.routers.(v) u)

let fail_node t v =
  Session_core.fail_node t.core v;
  let r = t.routers.(v) in
  Hashtbl.reset r.adj_rib_in;
  Hashtbl.reset r.rib_out;
  r.best <- None;
  Array.iter
    (fun (n, _) ->
      let rn = t.routers.(n) in
      Hashtbl.remove rn.adj_rib_in v;
      Hashtbl.remove rn.rib_out v;
      recompute t rn)
    (Topology.neighbors t.topo v)

let recover_node t v =
  Session_core.recover_node t.core v;
  let r = t.routers.(v) in
  (* re-originates if [v] is the destination; otherwise the RIBs are empty
     and best stays None until neighbours re-announce *)
  recompute t r;
  Array.iter
    (fun (n, _) ->
      (* sessions re-establish: each side advertises its current best *)
      advertise_to t t.routers.(n) v;
      advertise_to t r n)
    (Topology.neighbors t.topo v)

let deny_export t v n =
  Session_core.check_adjacent t.core ~op:"deny_export" v n;
  Hashtbl.replace t.routers.(v).export_deny n ();
  advertise_to t t.routers.(v) n

let allow_export t v n =
  Session_core.check_adjacent t.core ~op:"allow_export" v n;
  Hashtbl.remove t.routers.(v).export_deny n;
  advertise_to t t.routers.(v) n

(* --- observation ---------------------------------------------------- *)

let best t v = t.routers.(v).best

let next_hop t v =
  match t.routers.(v).best with None -> None | Some b -> Route.learned_from b

let to_table t : Static_route.table =
  Array.map
    (fun r ->
      match r.best with
      | None -> None
      | Some (b : Route.t) ->
        Some { Static_route.as_path = b.as_path; cls = b.cls })
    t.routers

(* One packet state; a step returns the next hop itself as its code. *)
let walk_fresh t =
  let links = Session_core.links t.core in
  let step v _ =
    if not (Link_state.node_up links v) then Fwd_walk.drop
    else
      match t.routers.(v).best with
      | Some { Route.as_path = nh :: _; _ } when Link_state.link_up links v nh
        ->
        nh
      | Some _ | None -> Fwd_walk.drop
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
let route_changes t = t.route_changes
let counters t = Session_core.counters t.core
