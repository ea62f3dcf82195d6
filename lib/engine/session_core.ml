type 'msg t = {
  sim : Sim.t;
  topo : Topology.t;
  who : string;
  links : Link_state.t;
  counters : Counters.t;
  detect_delay : float;
  trace : Trace.sink;
  procs : int;
  chans : (int, 'msg Channel.t) Hashtbl.t;  (* keyed by [link_key] *)
  mrais : (int, Mrai.t) Hashtbl.t;  (* keyed by [mrai_key] *)
  mutable last_change : float;
  mutable fwd_epoch : int;
  mutable walked_epoch : int;
  mutable walked : Fwd_walk.status array;
  mutable handler : src:Topology.vertex -> dst:Topology.vertex -> 'msg -> unit;
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

(* Int keys for the per-directed-link tables: a lookup (one per message)
   then neither allocates a tuple nor hashes one. *)
let link_key core u v = (u * Topology.num_vertices core.topo) + v
let mrai_key core u v proc = (link_key core u v * core.procs) + proc

let create ?(mrai_base = 30.) ?(delay_lo = 0.010) ?(delay_hi = 0.020)
    ?(detect_delay = 0.) ?(procs = 1) ?(trace = Trace.null) ~who sim topo =
  if detect_delay < 0. || Float.is_nan detect_delay then
    invalid_arg (who ^ ".create: negative detect delay");
  if procs < 1 then invalid_arg (who ^ ".create: non-positive process count");
  let core =
    {
      sim;
      topo;
      who;
      links = Link_state.create ~n:(Topology.num_vertices topo);
      counters = Counters.make ();
      detect_delay;
      trace;
      procs;
      chans = Hashtbl.create 64;
      mrais = Hashtbl.create 64;
      last_change = 0.;
      fwd_epoch = 0;
      walked_epoch = -1;
      walked = [||];
      handler =
        (fun ~src:_ ~dst:_ _ ->
          invalid_arg (who ^ ": Session_core receive handler not installed"));
    }
  in
  (* One ordered channel and [procs] MRAI timers per directed link, in the
     fixed vertices × neighbors iteration order every engine historically
     used. The order is part of the reproducibility contract: Mrai.create
     draws one RNG float per timer, so any reordering would shift every
     later draw and silently change all pinned experiment numbers. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun (v, _) ->
          let deliver msg =
            (* messages in flight when a link or endpoint fails are lost *)
            if Link_state.link_up core.links u v then begin
              trace_link core u v Trace.Deliver;
              core.handler ~src:u ~dst:v msg
            end
            else begin
              trace_link core u v Trace.Drop;
              core.counters.lost_to_resets <-
                core.counters.lost_to_resets + 1
            end
          in
          Hashtbl.replace core.chans (link_key core u v)
            (Channel.create sim ~delay_lo ~delay_hi ~deliver);
          for p = 0 to procs - 1 do
            Hashtbl.replace core.mrais (mrai_key core u v p)
              (Mrai.create (Sim.rng sim) ~base:mrai_base ())
          done)
        (Topology.neighbors topo u))
    (Topology.vertices topo);
  core

let on_receive core handler = core.handler <- handler
let sim core = core.sim
let links core = core.links
let counters core = core.counters
let detect_delay core = core.detect_delay
let link_up core u v = Link_state.link_up core.links u v
let node_up core v = Link_state.node_up core.links v
let last_change core = core.last_change
let message_count core = Counters.messages core.counters
let trace core = core.trace
let trace_enabled core = Trace.enabled core.trace
let emit_node core v kind = trace_node core v kind

(* The forwarding epoch; the interface states which writes must bump it. *)
let touch_fwd core = core.fwd_epoch <- core.fwd_epoch + 1

let cached_walk core walk x =
  if core.walked_epoch <> core.fwd_epoch then begin
    core.walked <- walk x;
    core.walked_epoch <- core.fwd_epoch
  end;
  core.walked

let note_decision core ~node ~old_next ~new_next ~cause =
  core.last_change <- Sim.now core.sim;
  touch_fwd core;
  if Trace.enabled core.trace then
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Node (Topology.asn core.topo node))
      (Trace.Decision
         {
           old_next = Option.map (Topology.asn core.topo) old_next;
           new_next = Option.map (Topology.asn core.topo) new_next;
           cause;
         })

let send core ~src ~dst ~kind msg =
  (match kind with
  | `Announce ->
    core.counters.announcements <- core.counters.announcements + 1
  | `Withdraw -> core.counters.withdrawals <- core.counters.withdrawals + 1);
  let chan = Hashtbl.find core.chans (link_key core src dst) in
  Channel.send chan msg;
  if Trace.enabled core.trace then
    trace_link core src dst
      (Trace.Enqueue
         {
           msg = (match kind with `Announce -> Trace.Announce
                                | `Withdraw -> Trace.Withdraw);
           deliver_at = Channel.last_delivery chan;
         })

(* Reconcile what neighbour [dst] should currently hear from [src] with
   what it last heard; send the delta, deferring announcements under MRAI.
   [retry] re-enters the engine's own advertise path when a deferred flush
   fires, so the desired value is recomputed at flush time. *)
let advertise core ?(proc = 0) ~src ~dst ~rib_out ~desired ~announce ~withdraw
    ~retry () =
  if Link_state.link_up core.links src dst then begin
    let current = Hashtbl.find_opt rib_out dst in
    match (desired, current) with
    | None, None -> ()
    | None, Some _ ->
      (* withdrawals are immediate *)
      Hashtbl.remove rib_out dst;
      send core ~src ~dst ~kind:`Withdraw (withdraw ())
    | Some p, Some p' when p = p' -> ()
    | Some p, (Some _ | None) ->
      let m = Hashtbl.find core.mrais (mrai_key core src dst proc) in
      let now = Sim.now core.sim in
      if Mrai.ready m ~now then begin
        Mrai.note_sent m ~now;
        Hashtbl.replace rib_out dst p;
        send core ~src ~dst ~kind:`Announce (announce p)
      end
      else begin
        core.counters.mrai_deferrals <- core.counters.mrai_deferrals + 1;
        if Trace.enabled core.trace then
          trace_link core src dst
            (Trace.Mrai_defer { until = Mrai.next_allowed m; proc });
        if not (Mrai.flush_scheduled m) then begin
          Mrai.set_flush_scheduled m true;
          Sim.schedule_at core.sim ~time:(Mrai.next_allowed m) (fun _ ->
              Mrai.set_flush_scheduled m false;
              if Trace.enabled core.trace then
                trace_link core src dst (Trace.Mrai_flush { proc });
              retry ())
        end
      end
  end

let rel core u v =
  match Topology.rel core.topo u v with
  | Some r -> r
  | None -> invalid_arg (core.who ^ ": vertices not adjacent")

let check_adjacent core ~op u v =
  if Topology.rel core.topo u v = None then
    invalid_arg (Printf.sprintf "%s.%s: vertices not adjacent" core.who op)

let fail_link core u v ~react =
  check_adjacent core ~op:"fail_link" u v;
  (* the data plane breaks immediately; the control plane reacts once the
     session failure is detected (hold timers, BFD, ...) *)
  Link_state.fail_link core.links u v;
  touch_fwd core;
  trace_link core u v Trace.Session_reset;
  if core.detect_delay = 0. then react ()
  else
    Sim.schedule core.sim ~delay:core.detect_delay (fun _ ->
        touch_fwd core;
        react ())

let recover_link core u v ~react =
  check_adjacent core ~op:"recover_link" u v;
  Link_state.recover_link core.links u v;
  touch_fwd core;
  trace_link core u v Trace.Session_up;
  react ()

let fail_node core v =
  Link_state.fail_node core.links v;
  touch_fwd core;
  trace_node core v Trace.Session_reset

let recover_node core v =
  Link_state.recover_node core.links v;
  touch_fwd core;
  trace_node core v Trace.Session_up
