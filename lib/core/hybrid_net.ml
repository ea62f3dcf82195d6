type msg = Announce of Topology.vertex list | Withdraw

type router = {
  v : Topology.vertex;
  upgraded : bool;
  mutable best : Route.t option;
  mutable backup : Route.t option; (* upgraded only: the blue table *)
  adj_rib_in : (Topology.vertex, Route.t) Hashtbl.t;
  rib_out : (Topology.vertex, Topology.vertex list) Hashtbl.t;
  export_deny : (Topology.vertex, unit) Hashtbl.t;
}

type t = {
  core : msg Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  routers : router array;
}

let sim t = Session_core.sim t.core
let dest t = t.dest
let is_deployed t v = t.routers.(v).upgraded

let rel_exn t u v =
  match Topology.rel t.topo u v with
  | Some r -> r
  | None -> invalid_arg "Hybrid_net: vertices not adjacent"

(* --- the plain-BGP control plane (identical to Bgp_net) --------------- *)

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

(* --- the blue table ---------------------------------------------------- *)

(* The RIB alternate most downhill-disjoint from the best route. *)
let recompute_backup t r =
  if r.upgraded then begin
    let backup =
      match r.best with
      | None -> None
      | Some best -> begin
        let downhill path =
          match Valley.decompose t.topo path with
          | _, down -> down
          | exception Invalid_argument _ -> path
        in
        let best_down = downhill (r.v :: best.Route.as_path) in
        let score (alt : Route.t) =
          List.length
            (List.filter
               (fun x -> x <> t.dest && List.mem x best_down)
               (downhill (r.v :: alt.as_path)))
        in
        Hashtbl.fold
          (fun from (alt : Route.t) acc ->
            if Some from = Route.learned_from best then acc
            else
              match acc with
              | None -> Some alt
              | Some cur ->
                let sa = score alt and sc = score cur in
                if sa < sc || (sa = sc && Decision.better alt cur) then
                  Some alt
                else acc)
          r.adj_rib_in None
      end
    in
    if backup <> r.backup then begin
      r.backup <- backup;
      Session_core.touch_fwd t.core
    end
  end

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
    r.best <- best';
    Session_core.note_decision t.core ~node:r.v ~old_next
      ~new_next:(Option.bind best' Route.learned_from)
      ~cause;
    recompute_backup t r;
    advertise_all t r
  end
  else recompute_backup t r

let receive t r ~from msg =
  if Session_core.node_up t.core r.v then begin
    (match msg with
    | Announce path ->
      if List.mem r.v path then Hashtbl.remove r.adj_rib_in from
      else
        Hashtbl.replace r.adj_rib_in from
          { Route.as_path = path; cls = rel_exn t r.v from }
    | Withdraw -> Hashtbl.remove r.adj_rib_in from);
    recompute t r
  end

(* --- construction ------------------------------------------------------ *)

let create sim topo ~dest ~deployed ?(mrai_base = 30.) ?(delay_lo = 0.010)
    ?(delay_hi = 0.020) ?(detect_delay = 0.) ?(trace = Trace.null) () =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Hybrid_net.create: bad destination";
  let routers =
    Array.init n (fun v ->
        {
          v;
          upgraded = deployed v;
          best = None;
          backup = None;
          adj_rib_in = Hashtbl.create 8;
          rib_out = Hashtbl.create 8;
          export_deny = Hashtbl.create 2;
        })
  in
  let core =
    Session_core.create ~mrai_base ~delay_lo ~delay_hi ~detect_delay ~trace
      ~who:"Hybrid_net" sim topo
  in
  let t = { core; topo; dest; routers } in
  Session_core.on_receive core (fun ~src ~dst msg ->
      receive t t.routers.(dst) ~from:src msg);
  t

let start t = recompute t t.routers.(t.dest)

(* --- failures ------------------------------------------------------------ *)

let drop_session t u v =
  let clear r peer =
    Hashtbl.remove r.adj_rib_in peer;
    Hashtbl.remove r.rib_out peer;
    recompute t r
  in
  clear t.routers.(u) v;
  clear t.routers.(v) u

let fail_link t u v =
  Session_core.fail_link t.core u v ~react:(fun () -> drop_session t u v)

let recover_link t u v =
  Session_core.recover_link t.core u v ~react:(fun () ->
      let clear r peer =
        Hashtbl.remove r.adj_rib_in peer;
        Hashtbl.remove r.rib_out peer
      in
      clear t.routers.(u) v;
      clear t.routers.(v) u;
      (* session re-establishes: each side advertises its current best *)
      advertise_to t t.routers.(u) v;
      advertise_to t t.routers.(v) u)

let fail_node t v =
  Session_core.fail_node t.core v;
  let r = t.routers.(v) in
  Hashtbl.reset r.adj_rib_in;
  Hashtbl.reset r.rib_out;
  r.best <- None;
  r.backup <- None;
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

(* --- observation ----------------------------------------------------------- *)

let best t v = t.routers.(v).best
let backup t v = t.routers.(v).backup

let has_disjoint_backup t v =
  match (t.routers.(v).best, t.routers.(v).backup) with
  | Some b, Some a ->
    Valley.downhill_disjoint t.topo (v :: b.Route.as_path) (v :: a.Route.as_path)
  | _ -> false

(* packet states: 0 = primary (never re-coloured), 1 = switched *)
let walk_fresh t =
  let links = Session_core.links t.core in
  (* next hop of [route] at [v] over a live link, or -1 *)
  let usable v (route : Route.t option) =
    match route with
    | Some { Route.as_path = nh :: _; _ } when Link_state.link_up links v nh
      ->
      nh
    | Some _ | None -> -1
  in
  let step v s =
    if not (Link_state.node_up links v) then Fwd_walk.drop
    else begin
      let r = t.routers.(v) in
      let nh = usable v r.best in
      (* a packet follows best routes, keeping its state. A re-coloured
         one does too: the backup was an advertised route of the
         deflection neighbour, so its hops are exactly the downstream best
         chain. Following other ASes' backups instead would compose
         unrelated local picks (two neighbouring backups can point at each
         other). One deflection per packet, as in Section 5. *)
      if nh >= 0 then (2 * nh) + s
      else if s = 0 && r.upgraded then begin
        (* primary missing or physically broken: an upgraded AS
           re-colours the packet onto its blue table *)
        let alt = usable v r.backup in
        if alt >= 0 then (2 * alt) + 1 else Fwd_walk.drop
      end
      else Fwd_walk.drop
    end
  in
  Fwd_walk.walk_all
    ~n:(Topology.num_vertices t.topo)
    ~dest:t.dest ~num_states:2
    ~start:(fun _ -> 0)
    ~step

let walk_all t = Session_core.cached_walk t.core walk_fresh t
let touch_fwd t = Session_core.touch_fwd t.core

let message_count t = Session_core.message_count t.core
let last_change t = Session_core.last_change t.core
let counters t = Session_core.counters t.core
