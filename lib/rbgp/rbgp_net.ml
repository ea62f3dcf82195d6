type cause = Link of Topology.vertex * Topology.vertex | Node of Topology.vertex

type msg =
  | Announce of { path : Topology.vertex list; rci : cause option }
  | Withdraw of { rci : cause option }
  | Failover of { path : Topology.vertex list option; rci : cause option }
      (** [path = None] withdraws a previously advertised failover path *)

type router = {
  proc : (Route.t, Topology.vertex list) Process.t;
  failover_rib : Topology.vertex list option array;
      (** failover paths received, by the advertiser's slot: the pinned
          path, starting at the advertiser *)
  mutable failover_out : (Topology.vertex * Topology.vertex list) option;
      (** (receiver, path) of our currently advertised failover path *)
  mutable withdrawn : Route.t option;
      (** the last best route after it was withdrawn: R-BGP keeps
          forwarding along it until an alternative is learned *)
  export_deny : bool array;  (** by slot *)
  mutable known_causes : cause list;
  mutable last_cause : cause option;
  mutable pick : int;  (** the failover pick's slot at the last pick, or -1 *)
}

type t = {
  core : msg Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  rci : bool;
  routers : router array;
  on_best : int array;  (** by vertex: [epoch] if on the scored best path *)
  mutable epoch : int;
}

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

(* [i] is the neighbour's slot at the router. *)
let advertise_to t r i =
  let p = r.proc in
  let n, to_rel = (Topology.neighbors t.topo p.self).(i) in
  match
    Process.advertise p t.core ~slot:i ~to_:n ~to_rel ~deny:r.export_deny.(i)
  with
  | Announce ->
    Session_core.send t.core ~src:p.self ~slot:i ~kind:`Announce
      (Announce { path = Option.get p.rib_out.(i); rci = r.last_cause })
  | Withdraw ->
    Session_core.send t.core ~src:p.self ~slot:i ~kind:`Withdraw
      (Withdraw { rci = r.last_cause })
  | Idle | Deferred -> ()

(* --- failover-path advertisement ------------------------------------ *)

(* Scoring against a best path in O(path length): mark its vertices with a
   fresh epoch, then count an alternate's marked vertices. *)
let rec mark t = function
  | [] -> ()
  | x :: rest ->
    t.on_best.(x) <- t.epoch;
    mark t rest

let mark_best t (b : Route.t) =
  t.epoch <- t.epoch + 1;
  mark t b.as_path

let rec count t n = function
  | [] -> n
  | x :: rest -> count t (if t.on_best.(x) = t.epoch then n + 1 else n) rest

let shared t (alt : Route.t) = count t 0 alt.as_path

(* The failover path goes to the best route's next hop, unless export to
   it is denied: the most disjoint alternate, by fewest vertices shared
   with the best path (the destination is shared by all candidates, so it
   never affects the ranking), then the decision order. The recipient must
   not appear in the alternate. *)
let update_failover t r =
  let p = r.proc in
  r.pick <- -1;
  let desired =
    match p.best with
    | None -> None
    | Some b -> begin
      match b.as_path with
      | [] -> None (* destination itself *)
      | nh :: _ when r.export_deny.(Topology.slot t.topo p.self nh) -> None
      | nh :: _ -> begin
        mark_best t b;
        match
          Process.alternate p
            ~admit:(fun alt -> not (Route.contains alt nh))
            ~score:(shared t)
        with
        | None -> None
        | Some alt ->
          r.pick <- Topology.slot t.topo p.self (List.hd alt.as_path);
          Some (nh, p.self :: alt.as_path)
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
           && Session_core.link_up t.core p.self prev ->
      Session_core.send t.core ~src:p.self
        ~slot:(Topology.slot t.topo p.self prev)
        ~kind:`Withdraw
        (Failover { path = None; rci = r.last_cause })
    | Some _ | None -> ());
    (match desired with
    | Some (n, path) when Session_core.link_up t.core p.self n ->
      Session_core.send t.core ~src:p.self
        ~slot:(Topology.slot t.topo p.self n)
        ~kind:`Announce
        (Failover { path = Some path; rci = r.last_cause })
    | Some _ | None -> ());
    r.failover_out <- desired

(* The entry in [slot] changed and the best route did not: whether the
   failover pick can move. It is the unique minimum of (score, decision
   order) over the admissible entries, so only a change of the picked
   slot, or an admissible entry that now beats the pick, can move it. *)
let pick_moved t r ~slot =
  let p = r.proc in
  slot = r.pick
  ||
  match (p.best, Process.entry p ~slot) with
  | Some ({ as_path = nh :: _; _ } as b), Some e
    when (not r.export_deny.(Topology.slot t.topo p.self nh))
         && not (Route.contains e nh) ->
    r.pick < 0
    ||
    let pick = Option.get (Process.entry p ~slot:r.pick) in
    mark_best t b;
    let s = shared t e and s' = shared t pick in
    s < s' || (s = s' && Decision.better e pick)
  | _ -> false

let advertise_all t r =
  for i = 0 to Topology.degree t.topo r.proc.self - 1 do
    advertise_to t r i
  done;
  update_failover t r

(* --- RCI purge ------------------------------------------------------- *)

(* Whether the cause was new and purged the RIBs. *)
let learn_cause t r cause =
  r.last_cause <- Some cause;
  let fresh = t.rci && not (List.exists (cause_equal cause) r.known_causes) in
  if fresh then begin
    r.known_causes <- cause :: r.known_causes;
    Process.purge r.proc ~drop:(fun rt -> path_hits_cause rt.as_path cause);
    Session_core.mark_fwd t.core r.proc.self;
    Array.iteri
      (fun i -> function
        | Some path when path_hits_cause path cause ->
          r.failover_rib.(i) <- None
        | Some _ | None -> ())
      r.failover_rib;
    (match r.withdrawn with
    | Some (w : Route.t) when path_hits_cause w.as_path cause ->
      r.withdrawn <- None
    | Some _ | None -> ())
  end;
  fresh

(* Whether a received path runs through a known root cause. *)
let stale t r path =
  t.rci && List.exists (fun c -> path_hits_cause path c) r.known_causes

(* [changed] is the one slot whose entry changed since the last decision,
   or -1 when others may have. *)
let recompute t r ~changed =
  let p = r.proc in
  let old = p.best in
  let best' = if p.self = t.dest then Some Route.origin else Process.select p in
  if Process.decide ~prefix:"" p t.core best' then begin
    (match (old, best') with
    | Some old, None -> r.withdrawn <- Some old
    | _, Some _ -> r.withdrawn <- None
    | None, None -> ());
    advertise_all t r
  end
  else if changed < 0 || pick_moved t r ~slot:changed then update_failover t r

let receive t r ~slot msg =
  if Session_core.node_up t.core r.proc.self then begin
    let rci =
      match msg with
      | Announce { rci; _ } | Withdraw { rci } | Failover { rci; _ } -> rci
    in
    let purged = match rci with Some c -> learn_cause t r c | None -> false in
    let changed = if purged then -1 else slot in
    match msg with
    | Announce { path; _ } when not (stale t r path) ->
      let cls = snd (Topology.neighbors t.topo r.proc.self).(slot) in
      Process.learn r.proc ~slot (Route.make ~cls path);
      recompute t r ~changed
    | Announce _ | Withdraw _ ->
      Process.withdraw r.proc ~slot;
      recompute t r ~changed
    | Failover { path; _ } ->
      Session_core.mark_fwd t.core r.proc.self;
      r.failover_rib.(slot) <-
        (match path with Some p when not (stale t r p) -> path | _ -> None);
      (* the failover pick reads the primary RIB, the best route and the
         export policy, none of which a failover path moves: only a purge
         can, or a decision still owed for a route that a recovery inside
         the detection window forgot (see [recover_link]) *)
      if purged || Process.select r.proc != r.proc.best then
        recompute t r ~changed:(-1)
  end

(* --- forwarding ------------------------------------------------------- *)

(* A pinned failover path delivers iff every hop is alive. *)
let pinned_alive t path =
  let links = Session_core.links t.core in
  let rec scan = function
    | a :: (b :: _ as rest) -> Link_state.link_up links a b && scan rest
    | [ x ] -> Link_state.node_up links x
    | [] -> true
  in
  scan path

(* One packet state; a step returns the next hop itself as its code. A
   step reads [v]'s best route, withdrawn route and failover RIB, and the
   links along the pinned failover paths. *)
let step t =
  let links = Session_core.links t.core in
  fun v _ ->
    if not (Link_state.node_up links v) then Fwd_walk.drop
    else begin
      let r = t.routers.(v) in
      let primary = Process.next_hop_up r.proc links in
      if primary >= 0 then primary
      else
        (* keep forwarding along the withdrawn route until an alternative
           or a root cause invalidates it *)
        let stale =
          match r.withdrawn with
          | Some w -> Process.hop_up links v w
          | None -> -1
        in
        if stale >= 0 then stale
        else begin
          (* Deflect onto a stored failover path. The router picks the
             lowest-numbered advertiser that is still reachable — it cannot
             know whether the rest of the pinned path is alive. Under RCI,
             stale failover paths were purged, so the pick is trustworthy;
             without RCI the packet follows a possibly dead path and is
             lost. *)
          let nbrs = Topology.neighbors t.topo v in
          let rec pick i =
            if i >= Array.length nbrs then Fwd_walk.drop
            else
              match r.failover_rib.(i) with
              | Some path when Link_state.link_up links v (fst nbrs.(i)) ->
                if pinned_alive t path then Fwd_walk.deliver else Fwd_walk.drop
              | Some _ | None -> pick (i + 1)
          in
          pick 0
        end
    end

let create sim topo ~dest ~rci ?(mrai_base = 30.) ?(detect_delay = 0.)
    ?(trace = Trace.null) () =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Rbgp_net.create: bad destination";
  let routers =
    Array.init n (fun v ->
        let degree = Topology.degree topo v in
        {
          proc = Process.create v ~degree ~route:Fun.id;
          failover_rib = Array.make degree None;
          failover_out = None;
          withdrawn = None;
          export_deny = Array.make degree false;
          known_causes = [];
          last_cause = None;
          pick = -1;
        })
  in
  let core =
    Session_core.create ~mrai_base ~detect_delay ~trace ~who:"Rbgp_net"
      ~blank:(Withdraw { rci = None }) sim topo
  in
  let t =
    { core; topo; dest; rci; routers; on_best = Array.make n 0; epoch = 0 }
  in
  Session_core.on_receive core (fun ~src:_ ~dst ~slot msg ->
      receive t t.routers.(dst) ~slot msg);
  Session_core.on_flush core (fun ~src ~slot ~proc:_ ->
      advertise_to t t.routers.(src) slot);
  Session_core.on_forward core ~dest ~num_states:1
    ~start:(fun _ -> 0) ~step:(step t);
  t

let start t = recompute t t.routers.(t.dest) ~changed:(-1)

(* Session reset at [r] with [peer], failover paths included. *)
let reset_session t r peer =
  let slot = Topology.slot t.topo r.proc.self peer in
  Process.forget r.proc ~slot;
  r.failover_rib.(slot) <- None;
  match r.failover_out with
  | Some (n, _) when n = peer -> r.failover_out <- None
  | Some _ | None -> ()

let drop_session t u v =
  reset_session t t.routers.(u) v;
  reset_session t t.routers.(v) u

(* A recovered element's root cause clears everywhere: paths through it
   are valid again. [last_cause] must go too, or re-announcements would
   carry the stale cause and re-poison every receiver. *)
let clear_cause t cause =
  Array.iter
    (fun r ->
      r.known_causes <-
        List.filter (fun c -> not (cause_equal c cause)) r.known_causes;
      match r.last_cause with
      | Some c when cause_equal c cause -> r.last_cause <- None
      | Some _ | None -> ())
    t.routers

(* A pinned failover path reads links far from its owner: a link event
   marks every vertex. *)
let fail_link t u v =
  Session_core.mark_all_fwd t.core;
  Session_core.fail_link t.core u v ~react:(fun () ->
      drop_session t u v;
      let cause = Link (u, v) in
      (* adjacent ASes know the root cause by local detection, with or
         without the RCI protocol extension: [learn_cause] records it in
         [last_cause] and purges only under RCI *)
      ignore (learn_cause t t.routers.(u) cause : bool);
      ignore (learn_cause t t.routers.(v) cause : bool);
      recompute t t.routers.(u) ~changed:(-1);
      recompute t t.routers.(v) ~changed:(-1))

let recover_link t u v =
  Session_core.mark_all_fwd t.core;
  Session_core.recover_link t.core u v ~react:(fun () ->
      drop_session t u v;
      clear_cause t (Link (u, v));
      advertise_to t t.routers.(u) (Topology.slot t.topo u v);
      advertise_to t t.routers.(v) (Topology.slot t.topo v u);
      update_failover t t.routers.(u);
      update_failover t t.routers.(v))

let fail_node t v =
  Session_core.fail_node t.core v;
  let r = t.routers.(v) in
  Process.clear r.proc;
  Array.fill r.failover_rib 0 (Array.length r.failover_rib) None;
  r.failover_out <- None;
  let cause = Node v in
  Array.iter
    (fun (n, _) ->
      let rn = t.routers.(n) in
      reset_session t rn v;
      ignore (learn_cause t rn cause : bool);
      recompute t rn ~changed:(-1))
    (Topology.neighbors t.topo v)

let recover_node t v =
  Session_core.recover_node t.core v;
  let r = t.routers.(v) in
  (* the returning router restarts with a clean slate *)
  r.known_causes <- [];
  r.last_cause <- None;
  r.withdrawn <- None;
  clear_cause t (Node v);
  (* re-originates if [v] is the destination; otherwise waits for
     neighbours to re-announce *)
  recompute t r ~changed:(-1);
  Array.iteri
    (fun i (n, _) ->
      advertise_to t t.routers.(n) (Topology.slot t.topo n v);
      advertise_to t r i;
      update_failover t t.routers.(n))
    (Topology.neighbors t.topo v)

let set_export t v n ~op ~deny =
  let i = Session_core.slot t.core ~op v n in
  let r = t.routers.(v) in
  r.export_deny.(i) <- deny;
  advertise_to t r i;
  update_failover t r

let deny_export t v n = set_export t v n ~op:"deny_export" ~deny:true
let allow_export t v n = set_export t v n ~op:"allow_export" ~deny:false

let best t v = t.routers.(v).proc.best

let failover_choices t v =
  List.filter_map Fun.id (Array.to_list t.routers.(v).failover_rib)

let walk_all t = Session_core.probe t.core
let fresh_walk t = Session_core.fresh_walk t.core

let message_count t = Session_core.message_count t.core
let last_change t = Session_core.last_change t.core
let counters t = Session_core.counters t.core

let to_table t = Process.table (Array.map (fun r -> r.proc) t.routers)
