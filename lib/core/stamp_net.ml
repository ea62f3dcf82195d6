type entry = { route : Route.t; lock : bool }

type body =
  | Announce of { path : Topology.vertex list; lock : bool; et_ok : bool }
  | Withdraw of { et_ok : bool }

type msg = { color : Color.t; body : body }

(* fills the session core's free queue cells *)
let blank = { color = Color.Red; body = Withdraw { et_ok = true } }

(* The router-wide facts the selective-announcement plan reads. They do not
   change while one router advertises (sending only schedules), so an
   advertisement round computes them once for every neighbour. *)
type plan = {
  locked_to : Topology.vertex;
      (** the designated provider when the router holds a locked blue
          route, else -1 *)
  single_homed : bool;  (** exactly one alive provider *)
  same_next_hop : bool;  (** both colours' best routes share a next hop *)
}

type router = {
  v : Topology.vertex;
  procs : (entry, Topology.vertex list * bool) Process.t array;
      (** indexed by Color.to_int; a neighbour hears (path, lock bit) *)
  unstable : bool array;  (** per colour *)
  loss_pending : bool array;
      (** per colour: our next updates are consequences of a route loss
          (ET=0) *)
  export_deny : bool array;  (** by slot *)
  mutable last_plan : plan;  (** the plan of the last full round *)
}

type t = {
  core : msg Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  coloring : Coloring.t;
  spread_unlocked_blue : bool;
  routers : router array;
}

let proc r color = r.procs.(Color.to_int color)

(* --- selective announcement ----------------------------------------- *)

(* the blue process counts its locked entries ([Process.flagged]) *)
let blue_lock_held t r = r.v = t.dest || (proc r Color.Blue).flagged > 0

(* The provider the locked blue route must be re-announced to: the first
   alive provider in the AS's coloring preference order; -1 when none. *)
let designated_provider t r =
  let prefs = Coloring.preference t.coloring r.v and i = ref 0 in
  while
    !i < Array.length prefs
    && not (Session_core.link_up t.core r.v prefs.(!i))
  do
    incr i
  done;
  if !i < Array.length prefs then prefs.(!i) else -1

let alive_provider_count t r =
  let provs = Topology.providers t.topo r.v and n = ref 0 in
  for i = 0 to Array.length provs - 1 do
    if Session_core.link_up t.core r.v provs.(i) then incr n
  done;
  !n

let plan t r =
  {
    locked_to = (if blue_lock_held t r then designated_provider t r else -1);
    single_homed = alive_provider_count t r = 1;
    same_next_hop =
      Process.next_hop (proc r Red) = Process.next_hop (proc r Blue);
  }

let same_plan a b =
  a.locked_to = b.locked_to
  && Bool.equal a.single_homed b.single_homed
  && Bool.equal a.same_next_hop b.same_next_hop

(* Should neighbour [n] (relationship [to_rel]) currently hear [r]'s route
   on process [color]? [Some lock] for an announcement with that lock bit,
   None for nothing/withdraw. The options are constants: no allocation. *)
let desired t r plan n to_rel color =
  (* the plan: announce the colour's valley-free path, with this lock bit *)
  let lock =
    match (to_rel : Relationship.t) with
    | Customer | Peer | Sibling -> Some false
    | Provider -> begin
      let red = Process.exportable (proc r Red) ~to_:n ~to_rel
      and blue = Process.exportable (proc r Blue) ~to_:n ~to_rel in
      let designated = blue && n = plan.locked_to in
      (* single-homed origin chains relay both colours upward so the
         initial colouring can happen at the first multi-homed ancestor
         (footnote 4) *)
      let relay =
        plan.single_homed
        && (r.v = t.dest || (red && blue && plan.same_next_hop))
      in
      match (color : Color.t) with
      | Blue ->
        (* Only the locked blue route propagates to providers (to exactly
           one of them). Unlocked blue is "not required to propagate"
           (Section 4.1) and deliberately is not: announcing it to red-less
           providers would couple the blue process to red churn — whenever
           a red route (re)appears, its precedence would force a blue
           withdrawal, punching transient holes into the blue tree. Blue
           still reaches every AS through the locked chain to a tier-1 and
           the unrestricted announcements to customers and peers. *)
        if designated then Some true
        else if t.spread_unlocked_blue && (not red) && not relay then
          (* ablation mode: fill red-less providers with unlocked blue *)
          Some false
        else None
      | Red ->
        (* red yields the locked blue provider *)
        if (not relay) && designated then None else Some false
    end
  in
  match lock with
  | Some _ when Process.exportable (proc r color) ~to_:n ~to_rel -> lock
  | Some _ | None -> None

(* Advertise to the neighbour in slot [i] under a given plan; what it
   heard is compared without allocating, its RIB-Out tail physically
   first. *)
let rec advertise_planned t r plan i color =
  let c = Color.to_int color in
  let p = r.procs.(c) in
  let n, to_rel = (Topology.neighbors t.topo r.v).(i) in
  let lock =
    if r.export_deny.(i) then None else desired t r plan n to_rel color
  in
  let heard = p.rib_out.(i) in
  let same =
    match (lock, heard, p.best) with
    | Some lock, Some (_ :: h, lock'), Some b ->
      Bool.equal lock lock' && (h == b.route.as_path || h = b.route.as_path)
    | _ -> false
  in
  match
    Session_core.advertise t.core ~proc:c ~src:r.v ~slot:i
      ~heard:(Option.is_some heard) ~wants:(Option.is_some lock) ~same
  with
  | Announce ->
    let path = r.v :: (Option.get p.best).route.as_path
    and lock = Option.get lock in
    p.rib_out.(i) <- Some (path, lock);
    Session_core.send t.core ~src:r.v ~slot:i ~kind:`Announce
      { color; body = Announce { path; lock; et_ok = not r.loss_pending.(c) } }
  | Withdraw ->
    p.rib_out.(i) <- None;
    Session_core.send t.core ~src:r.v ~slot:i ~kind:`Withdraw
      { color; body = Withdraw { et_ok = not r.loss_pending.(c) } }
  | Idle | Deferred -> ()

and advertise_to t r i color = advertise_planned t r (plan t r) i color

(* Both colours to every neighbour, in slot then {!Color.all} order, under
   one plan: every slot on a [full] round, otherwise only the slots whose
   MRAI flush is pending (see [receive]). *)
let advertise_slot t r plan ~full i color =
  if
    full
    || Session_core.flush_pending t.core ~proc:(Color.to_int color) ~src:r.v
         ~slot:i
  then advertise_planned t r plan i color

let advertise_round t r plan ~full =
  if full then r.last_plan <- plan;
  for i = 0 to Topology.degree t.topo r.v - 1 do
    advertise_slot t r plan ~full i Red;
    advertise_slot t r plan ~full i Blue
  done

let advertise_all t r = advertise_round t r (plan t r) ~full:true

(* --- decision -------------------------------------------------------- *)

let entry_route e = e.route
let entry_lock e = e.lock

let origin_entry color =
  (* the destination's own blue route carries the lock obligation *)
  { route = Route.origin; lock = Color.equal color Color.Blue }

let cause_prefix = function Color.Red -> "red:" | Color.Blue -> "blue:"

(* Recompute one process's best and return whether it changed; [loss] says
   whether the triggering event was a route loss (drives the ET attribute
   and the instability flag). The caller re-advertises afterwards. *)
let recompute t r color ~loss =
  let c = Color.to_int color in
  let p = r.procs.(c) in
  let best' =
    if r.v = t.dest then Some (origin_entry color) else Process.select p
  in
  (* the decision's dirty mark of [r.v] also covers the [unstable] flip
     below *)
  let changed = Process.decide ~prefix:(cause_prefix color) p t.core best' in
  if changed then begin
    let was_unstable = r.unstable.(c) in
    r.unstable.(c) <- loss;
    r.loss_pending.(c) <- loss;
    (* instability flips re-colour traffic away from (or back onto) this
       process: the ET-bit view of the event, for the trace *)
    if loss <> was_unstable && Session_core.trace_enabled t.core then
      Session_core.emit_node t.core r.v
        (Trace.Recolor { color = Color.to_string color; et_ok = not loss })
  end;
  changed

let receive t r ~slot { color; body } =
  if Session_core.node_up t.core r.v then begin
    let p = proc r color in
    (* the ET bit decides: a poisoning withdrawal sent while a *better*
       route propagates carries ET=1 and must not trigger switching
       (Lemma 3.1 — improvements cause no transients); withdrawal-type
       events (failures, policy changes) are marked ET=0 by the AS where
       they happened *)
    let loss =
      match body with
      | Withdraw { et_ok } | Announce { et_ok; _ } -> not et_ok
    in
    (match body with
    | Announce { path; lock; _ } ->
      let cls = snd (Topology.neighbors t.topo r.v).(slot) in
      Process.learn p ~slot { route = Route.make ~cls path; lock }
    | Withdraw _ -> Process.withdraw p ~slot);
    let changed = recompute t r color ~loss in
    (* A round reads the plan and both best routes. While neither moves,
       only slots with a pending MRAI flush can do anything (DESIGN.md,
       "Skipped STAMP rounds"); the plan moves without a decision on a
       locked blue entry that is not best, or inside a detection window. *)
    let plan = plan t r in
    advertise_round t r plan ~full:(changed || not (same_plan plan r.last_plan))
  end

(* --- forwarding ------------------------------------------------------- *)

(* Colour-aware forwarding (Section 5): forward on the packet's colour;
   when that process's route is missing, broken or unstable, re-colour the
   packet — at most once — and use the other process. Packet state is
   [2 * colour + switched], with colours as {!Color.to_int} (0 or 1). A
   step and the start state read [v]'s best routes and [unstable] flags,
   which change together in a decision, and the links and node at [v]. *)
let forwarding t =
  let links = Session_core.links t.core in
  (* next hop of process [c]'s best route over a live link, or -1 *)
  let usable r c = Process.next_hop_up r.procs.(c) links in
  let forward nh c ~switched = (nh * 4) + (2 * c) + switched in
  let step v s =
    if not (Link_state.node_up links v) then Fwd_walk.drop
    else begin
      let r = t.routers.(v) in
      let c = s / 2 in
      let other = 1 - c in
      let nh = usable r c in
      if s land 1 = 1 then
        (* the packet was already re-coloured once: stick to its colour *)
        if nh >= 0 then forward nh c ~switched:1 else Fwd_walk.drop
      else if nh >= 0 && not r.unstable.(c) then
        forward nh c ~switched:0
      else begin
        let nh' = usable r other in
        if nh' >= 0 && not r.unstable.(other) then
          forward nh' other ~switched:1
        (* both processes disturbed: any process that still has a route
           can be used (Section 5.2) *)
        else if nh >= 0 then forward nh c ~switched:0
        else if nh' >= 0 then forward nh' other ~switched:1
        else Fwd_walk.drop
      end
    end
  in
  (* the colour of the source's preferred route, Blue when it has none *)
  let start v =
    let procs = t.routers.(v).procs in
    match (procs.(Color.to_int Red).best, procs.(Color.to_int Blue).best) with
    | Some _, None -> 2 * Color.to_int Red
    | Some red, Some blue when Decision.better red.route blue.route ->
      2 * Color.to_int Red
    | Some _, Some _ | None, _ -> 2 * Color.to_int Blue
  in
  Session_core.on_forward t.core ~dest:t.dest ~num_states:4 ~start ~step

(* --- construction ----------------------------------------------------- *)

let create sim topo ~dest ~coloring ?(mrai_base = 30.) ?(detect_delay = 0.)
    ?(spread_unlocked_blue = false) ?(trace = Trace.null) () =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Stamp_net.create: bad destination";
  let routers =
    Array.init n (fun v ->
        let degree = Topology.degree topo v in
        {
          v;
          procs =
            Array.init 2 (fun _ ->
                Process.create v ~degree ~route:entry_route ~flag:entry_lock);
          unstable = Array.make 2 false;
          loss_pending = Array.make 2 false;
          export_deny = Array.make degree false;
          (* no round yet: a locked_to of -2 matches no plan *)
          last_plan =
            { locked_to = -2; single_homed = false; same_next_hop = false };
        })
  in
  (* procs:2 — one MRAI timer per colour per directed link, drawn in
     Color.all order exactly as before *)
  let core =
    Session_core.create ~mrai_base ~detect_delay ~procs:2 ~trace
      ~who:"Stamp_net" ~blank sim topo
  in
  let t = { core; topo; dest; coloring; spread_unlocked_blue; routers } in
  Session_core.on_receive core (fun ~src:_ ~dst ~slot msg ->
      receive t t.routers.(dst) ~slot msg);
  Session_core.on_flush core (fun ~src ~slot ~proc ->
      advertise_to t t.routers.(src) slot (Color.of_int proc));
  forwarding t;
  t

let start t =
  let r = t.routers.(t.dest) in
  List.iter (fun color -> ignore (recompute t r color ~loss:false : bool))
    Color.all;
  advertise_all t r

(* --- failures ---------------------------------------------------------- *)

(* Session reset at [r] with [peer], then re-advertise whatever the
   selective-announcement plan now assigns. On a [failure], a process that
   loses its best route marks the change as a loss; a session coming back
   re-establishes with empty state and loses nothing. *)
let reset_session t r peer ~failure =
  let slot = Topology.slot t.topo r.v peer in
  List.iter
    (fun color ->
      let p = proc r color in
      let loss = failure && Process.next_hop p = peer in
      Process.forget p ~slot;
      ignore (recompute t r color ~loss : bool))
    Color.all;
  advertise_all t r

let fail_link t u v =
  Session_core.fail_link t.core u v ~react:(fun () ->
      reset_session t t.routers.(u) v ~failure:true;
      reset_session t t.routers.(v) u ~failure:true)

let recover_link t u v =
  Session_core.recover_link t.core u v ~react:(fun () ->
      reset_session t t.routers.(u) v ~failure:false;
      reset_session t t.routers.(v) u ~failure:false)

let fail_node t v =
  Session_core.fail_node t.core v;
  let r = t.routers.(v) in
  Array.iter Process.clear r.procs;
  Array.iter
    (fun (n, _) -> reset_session t t.routers.(n) v ~failure:true)
    (Topology.neighbors t.topo v)

let recover_node t v =
  Session_core.recover_node t.core v;
  let r = t.routers.(v) in
  (* the returning router restarts both processes from scratch *)
  List.iter
    (fun color ->
      let c = Color.to_int color in
      Process.clear r.procs.(c);
      r.unstable.(c) <- false;
      r.loss_pending.(c) <- false;
      ignore (recompute t r color ~loss:false : bool))
    Color.all;
  advertise_all t r;
  (* neighbours re-run the selective-announcement plan — in particular the
     locked-blue-provider designation, which may now prefer a provider that
     just came back *)
  Array.iter
    (fun (n, _) -> reset_session t t.routers.(n) v ~failure:false)
    (Topology.neighbors t.topo v)

let deny_export t v n =
  let slot = Session_core.slot t.core ~op:"deny_export" v n in
  let r = t.routers.(v) in
  r.export_deny.(slot) <- true;
  (* a policy change is a withdrawal-type event: the AS where it happens
     marks the resulting withdrawals ET=0 (Section 5.2) *)
  List.iter
    (fun color ->
      let p = proc r color in
      if Option.is_some p.rib_out.(slot) then begin
        p.rib_out.(slot) <- None;
        Session_core.send t.core ~src:v ~slot ~kind:`Withdraw
          { color; body = Withdraw { et_ok = false } }
      end)
    Color.all

let allow_export t v n =
  let slot = Session_core.slot t.core ~op:"allow_export" v n in
  let r = t.routers.(v) in
  r.export_deny.(slot) <- false;
  List.iter (fun c -> advertise_to t r slot c) Color.all

(* --- observation -------------------------------------------------------- *)

let best t color v =
  Option.map (fun e -> e.route) (proc t.routers.(v) color).best

let path t color v =
  Option.map (fun (r : Route.t) -> v :: r.as_path) (best t color v)

let has_both t v = best t Color.Red v <> None && best t Color.Blue v <> None
let unstable t color v = t.routers.(v).unstable.(Color.to_int color)

let walk_all t = Session_core.probe t.core
let fresh_walk t = Session_core.fresh_walk t.core

let announced t color v =
  let nbrs = Topology.neighbors t.topo v
  and heard = (proc t.routers.(v) color).rib_out in
  List.filter_map
    (fun i -> Option.map (fun (_, lock) -> (fst nbrs.(i), lock)) heard.(i))
    (List.init (Array.length heard) Fun.id)

let message_count t = Session_core.message_count t.core
let last_change t = Session_core.last_change t.core
let counters t = Session_core.counters t.core

let to_table t color =
  Process.table (Array.map (fun r -> proc r color) t.routers)
