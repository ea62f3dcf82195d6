type 'msg t = {
  sim : Sim.t;
  topo : Topology.t;
  who : string;
  links : Link_state.t;
  counters : Counters.t;
  detect_delay : float;
  trace : Trace.sink;
  procs : int;
  last_delivery : Float.Array.t;
      (* by directed edge id: when the edge's latest message arrives *)
  peer_slot : int array;  (* by edge id: the sender's slot at the receiver *)
  edge_src : int array;  (* by edge id: the sender *)
  mrai_interval : Float.Array.t;  (* by edge id * procs + process *)
  mrai_next : Float.Array.t;  (* same index: next announcement allowed *)
  flush_scheduled : Bytes.t;  (* same index: '\001' while a flush pends *)
  link_gen : int array;
      (* by the edge id of a link's lower-to-higher direction: bumped at
         every failure and recovery of the link *)
  (* In-flight messages: per edge, a ring of cells of a shared pool, linked
     by [next_cell] from the newest to the oldest; free cells hold [blank]
     and form a list from [free] (-1: none) *)
  blank : 'msg;
  mutable pool : 'msg array;
  mutable next_cell : int array;
  mutable free : int;
  newest : int array;  (* by edge id: the newest in-flight cell, or -1 *)
  mutable last_change : float;
  mutable fwd : Fwd_walk.t option;  (* set once by [on_forward] *)
  mutable handler :
    src:Topology.vertex -> dst:Topology.vertex -> slot:int -> 'msg -> unit;
  mutable flush_handler : src:Topology.vertex -> slot:int -> proc:int -> unit;
}

(* Trace emission helpers: every call is guarded by [Trace.enabled], so a
   Null-sink run performs one branch and no allocation per potential
   event — the zero-cost-when-off contract. Locations are emitted in ASN
   space (what trace consumers see), not vertex-index space. *)
let trace_link core u v kind =
  if Trace.enabled core.trace then
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Link (Topology.asn core.topo u, Topology.asn core.topo v))
      kind

let trace_node core v kind =
  if Trace.enabled core.trace then
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Node (Topology.asn core.topo v))
      kind

(* The receiver of edge [e], sent from [u]. *)
let edge_dst core u e =
  fst (Array.unsafe_get (Topology.neighbors core.topo u)
         (e - Topology.first_edge core.topo u))

let enqueue core e msg =
  if core.free < 0 then begin
    (* every cell is taken: double the pool, chaining the new cells *)
    let cap = Array.length core.pool in
    let more = max 64 cap in
    core.pool <- Array.append core.pool (Array.make more core.blank);
    core.next_cell <- Array.append core.next_cell
        (Array.init more (fun i -> if i + 1 < more then cap + i + 1 else -1));
    core.free <- cap
  end;
  let c = core.free in
  core.free <- core.next_cell.(c);
  core.pool.(c) <- msg;
  let last = core.newest.(e) in
  if last < 0 then core.next_cell.(c) <- c
  else begin
    core.next_cell.(c) <- core.next_cell.(last);
    core.next_cell.(last) <- c
  end;
  core.newest.(e) <- c

(* A delivery event on edge [e]: its oldest in-flight message arrives.
   Delivery times on one edge strictly increase, so the events of an edge
   fire in queue order. *)
let deliver core e =
  let last = core.newest.(e) in
  let c = core.next_cell.(last) in
  let msg = core.pool.(c) in
  if c = last then core.newest.(e) <- -1
  else core.next_cell.(last) <- core.next_cell.(c);
  core.pool.(c) <- core.blank;
  core.next_cell.(c) <- core.free;
  core.free <- c;
  let u = core.edge_src.(e) in
  let v = edge_dst core u e in
  (* messages in flight when a link or endpoint fails are lost *)
  if Link_state.link_up core.links u v then begin
    trace_link core u v Trace.Deliver;
    core.handler ~src:u ~dst:v ~slot:core.peer_slot.(e) msg
  end
  else begin
    trace_link core u v Trace.Drop;
    core.counters.lost_to_resets <- core.counters.lost_to_resets + 1
  end

(* A deferred MRAI flush of timer [m] fires: the engine re-advertises. *)
let flush core m =
  Bytes.set core.flush_scheduled m '\000';
  let e = m / core.procs and proc = m mod core.procs in
  let u = core.edge_src.(e) in
  if Trace.enabled core.trace then
    trace_link core u (edge_dst core u e) (Trace.Mrai_flush { proc });
  core.flush_handler ~src:u ~slot:(e - Topology.first_edge core.topo u) ~proc

(* The paper's per-message delay (processing plus transmission). *)
let delay_lo = 0.010
let delay_hi = 0.020

let create ~mrai_base ~detect_delay ?(procs = 1) ~trace ~who ~blank sim topo =
  if detect_delay < 0. || Float.is_nan detect_delay then
    invalid_arg (who ^ ".create: negative detect delay");
  if mrai_base < 0. || Float.is_nan mrai_base then
    invalid_arg (who ^ ".create: negative MRAI base");
  if procs < 1 then invalid_arg (who ^ ".create: non-positive process count");
  let edges = Topology.num_edges topo in
  let rng = Sim.rng sim in
  (* One MRAI draw per timer, by increasing edge id then process: the
     order is part of the reproducibility contract, since any reordering
     would shift every later draw and change all pinned experiment
     numbers. *)
  let mrai_interval =
    Float.Array.init (edges * procs) (fun _ ->
        mrai_base *. (0.75 +. Random.State.float rng 0.25))
  in
  (* Edge ids follow vertices × neighbors order. *)
  let peer_slot = Array.make edges 0 and edge_src = Array.make edges 0 in
  for u = 0 to Topology.num_vertices topo - 1 do
    Array.iteri
      (fun i (v, _) ->
        let e = Topology.first_edge topo u + i in
        peer_slot.(e) <- Topology.slot topo v u;
        edge_src.(e) <- u)
      (Topology.neighbors topo u)
  done;
  let core =
    {
      sim;
      topo;
      who;
      links = Link_state.create topo;
      counters = Counters.make ();
      detect_delay;
      trace;
      procs;
      last_delivery = Float.Array.make edges 0.;
      peer_slot;
      edge_src;
      mrai_interval;
      mrai_next = Float.Array.make (edges * procs) 0.;
      flush_scheduled = Bytes.make (edges * procs) '\000';
      link_gen = Array.make edges 0;
      blank;
      pool = [||];
      next_cell = [||];
      free = -1;
      newest = Array.make edges (-1);
      last_change = 0.;
      fwd = None;
      handler =
        (fun ~src:_ ~dst:_ ~slot:_ _ ->
          invalid_arg (who ^ ": Session_core receive handler not installed"));
      flush_handler =
        (fun ~src:_ ~slot:_ ~proc:_ ->
          invalid_arg (who ^ ": Session_core flush handler not installed"));
    }
  in
  (* the simulation's integer events: [2 e] delivers on edge [e], [2 m +
     1] flushes MRAI timer [m] *)
  Sim.on_event sim (fun k ->
      if k land 1 = 0 then deliver core (k lsr 1) else flush core (k lsr 1));
  core

let on_receive core handler = core.handler <- handler
let on_flush core handler = core.flush_handler <- handler
let links core = core.links
let counters core = core.counters
let link_up core u v = Link_state.link_up core.links u v
let node_up core v = Link_state.node_up core.links v
let last_change core = core.last_change
let message_count core = Counters.messages core.counters
let trace_enabled core = Trace.enabled core.trace
let emit_node core v kind = trace_node core v kind

(* The dirty set; the interface states which writes must mark which
   vertex. Marks before [on_forward] are moot: the first probe walks
   everything. *)
let on_forward core ~dest ~num_states ~start ~step =
  core.fwd <-
    Some
      (Fwd_walk.create ~n:(Topology.num_vertices core.topo) ~dest ~num_states
         ~start ~step)

let mark_fwd core v =
  match core.fwd with Some w -> Fwd_walk.mark w v | None -> ()

let mark_all_fwd core =
  match core.fwd with Some w -> Fwd_walk.mark_all w | None -> ()

let walker core =
  match core.fwd with
  | Some w -> w
  | None -> invalid_arg (core.who ^ ": Session_core forwarding not installed")

let probe core = Fwd_walk.refresh (walker core)
let fresh_walk core = Fwd_walk.fresh (walker core)

let note_decision core ~node ~old_next ~new_next ~prefix ~cause =
  core.last_change <- Sim.now core.sim;
  mark_fwd core node;
  if Trace.enabled core.trace then
    let asn v = if v < 0 then None else Some (Topology.asn core.topo v) in
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Node (Topology.asn core.topo node))
      (Trace.Decision
         {
           old_next = asn old_next;
           new_next = asn new_next;
           cause = prefix ^ cause;
         })

(* Schedule [msg]'s delivery after a fresh U[delay_lo, delay_hi] draw,
   but never before the edge's previous message: sessions are FIFO. *)
let send core ~src ~slot ~kind msg =
  let edge = Topology.first_edge core.topo src + slot in
  (match kind with
  | `Announce ->
    core.counters.announcements <- core.counters.announcements + 1
  | `Withdraw -> core.counters.withdrawals <- core.counters.withdrawals + 1);
  let delay =
    delay_lo +. Random.State.float (Sim.rng core.sim) (delay_hi -. delay_lo)
  in
  let at =
    Float.max (Sim.now core.sim +. delay)
      (Float.Array.get core.last_delivery edge +. 1e-9)
  in
  Float.Array.set core.last_delivery edge at;
  enqueue core edge msg;
  Sim.schedule_event core.sim ~time:at (2 * edge);
  if Trace.enabled core.trace then
    trace_link core src (edge_dst core src edge)
      (Trace.Enqueue
         {
           msg = (match kind with `Announce -> Trace.Announce
                                | `Withdraw -> Trace.Withdraw);
           deliver_at = at;
         })

type verdict = Idle | Deferred | Withdraw | Announce

(* Reconcile what the neighbour in [slot] should currently hear from [src]
   with what it last heard: withdrawals go at once, announcements under
   MRAI. A deferral schedules one flush, which re-enters the engine's
   advertise path through [on_flush]. *)
let advertise core ~proc ~src ~slot ~heard ~wants ~same =
  let dst = fst (Array.unsafe_get (Topology.neighbors core.topo src) slot) in
  if not (Link_state.link_up core.links src dst) then Idle
  else if not wants then if heard then Withdraw else Idle
  else if heard && same then Idle
  else begin
    let m = ((Topology.first_edge core.topo src + slot) * core.procs) + proc in
    let now = Sim.now core.sim in
    let next = Float.Array.get core.mrai_next m in
    if now >= next then begin
      Float.Array.set core.mrai_next m
        (now +. Float.Array.get core.mrai_interval m);
      Announce
    end
    else begin
      core.counters.mrai_deferrals <- core.counters.mrai_deferrals + 1;
      if Trace.enabled core.trace then
        trace_link core src dst (Trace.Mrai_defer { until = next; proc });
      if Bytes.get core.flush_scheduled m = '\000' then begin
        Bytes.set core.flush_scheduled m '\001';
        Sim.schedule_event core.sim ~time:next ((2 * m) + 1)
      end;
      Deferred
    end
  end

let flush_pending core ~proc ~src ~slot =
  let edge = Topology.first_edge core.topo src + slot in
  Bytes.get core.flush_scheduled ((edge * core.procs) + proc) <> '\000'

let slot core ~op u v =
  let i = Topology.slot core.topo u v in
  if i < 0 then
    invalid_arg (Printf.sprintf "%s.%s: vertices not adjacent" core.who op);
  i

(* Bump the link's generation and return the new one. *)
let next_gen core ~op u v =
  let lo = min u v and hi = max u v in
  let l = Topology.first_edge core.topo lo + slot core ~op lo hi in
  core.link_gen.(l) <- core.link_gen.(l) + 1;
  l

let fail_link core u v ~react =
  let l = next_gen core ~op:"fail_link" u v in
  let gen = core.link_gen.(l) in
  (* the data plane breaks immediately; the control plane reacts once the
     session failure is detected (hold timers, BFD, ...) *)
  Link_state.fail_link core.links u v;
  mark_fwd core u;
  mark_fwd core v;
  trace_link core u v Trace.Session_reset;
  if core.detect_delay = 0. then react ()
  else
    Sim.schedule core.sim ~delay:core.detect_delay (fun _ ->
        (* a recovery, or a later failure, of the link since then owns the
           session: this failure was never detected. [react] marks what it
           writes itself: the failure instant already marked the link. *)
        if core.link_gen.(l) = gen then react ())

let recover_link core u v ~react =
  ignore (next_gen core ~op:"recover_link" u v : int);
  Link_state.recover_link core.links u v;
  mark_fwd core u;
  mark_fwd core v;
  trace_link core u v Trace.Session_up;
  react ()

let fail_node core v =
  Link_state.fail_node core.links v;
  mark_all_fwd core;
  trace_node core v Trace.Session_reset

let recover_node core v =
  Link_state.recover_node core.links v;
  mark_all_fwd core;
  trace_node core v Trace.Session_up
