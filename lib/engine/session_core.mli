(** The session substrate every protocol engine shares, implemented once:
    the paper's session model (§6) of FIFO links with U[10 ms, 20 ms]
    per-message delays and per-peer (per-process) MRAI timers of
    [mrai_base] × U[0.75, 1.0] with immediate withdrawals, session-reset
    semantics on failure (in-flight messages on a dead link are dropped
    and counted), link/node up-down bookkeeping ({!Link_state}) and the
    per-engine update {!Counters}.

    A protocol engine built on this core is reduced to its decision,
    export and attribute policy: it computes {e what} a neighbour should
    hear and asks {!advertise} what to do about it; the core owns {e when}
    and {e whether} the message travels.

    State is flat: each directed edge ({!Topology.edge}) keeps its last
    delivery time, the sender's slot at the receiver and a FIFO of its
    in-flight messages; each MRAI timer, indexed by edge id × [procs] +
    process, keeps its interval, the next allowed announcement time and a
    flush-scheduled flag; an engine's per-neighbour state is indexed by
    slot ({!Topology.slot}). Deliveries and flushes are {!Sim} integer
    events (edge id, timer index) for handlers installed once: the
    per-message path builds no closure and hashes nothing.

    Reproducibility contract: {!create} draws one RNG float per MRAI
    timer, in increasing edge id and then process order — edge ids follow
    vertices × neighbors order, the order every engine has always used;
    {!send} draws one float per message sent. Any
    reordering would shift every later draw and change every pinned
    experiment number. *)

type 'msg t
(** A session core carrying protocol messages of type ['msg]. *)

val create :
  mrai_base:float ->
  detect_delay:float ->
  ?procs:int ->
  trace:Trace.sink ->
  who:string ->
  blank:'msg ->
  Sim.t ->
  Topology.t ->
  'msg t
(** Session state for every directed link. Each of the [procs] (default
    1) routing processes per router — STAMP runs two — gets its own MRAI
    timer per directed link, with interval [mrai_base] × U[0.75, 1.0]; a
    base of [0.] disables rate limiting. [detect_delay] postpones the
    control-plane reaction to every subsequent {!fail_link} while the data
    plane is already broken ([0.]: immediate). [trace] receives the
    session substrate's structured events — enqueue/deliver/drop per
    link, MRAI deferrals and flushes, session resets and decisions
    ({!note_decision}) — stamped with [who] as engine id and locations in
    ASN space; with {!Trace.null} every emission site reduces to one
    branch, and traced runs are bit-identical to untraced ones (tracing
    draws no randomness and schedules nothing). [who] prefixes error
    messages (["Bgp_net.fail_link: vertices not adjacent"]). [blank], any
    message, fills the free queue cells. The core installs the
    simulation's integer-event handler ({!Sim.on_event}).
    @raise Invalid_argument on a negative [mrai_base]
    (["<who>.create: negative MRAI base"]) or [detect_delay], a
    non-positive [procs], or a simulation that already carries a core. *)

val on_receive :
  'msg t ->
  (src:Topology.vertex -> dst:Topology.vertex -> slot:int -> 'msg -> unit) ->
  unit
(** Install the engine's receive function. It gets the message's sender,
    its receiver, and [slot], the sender's slot at the receiver
    ([Topology.slot topo dst src], found once per directed link at
    {!create}). Must be called before the first message is delivered;
    kept separate from {!create} so the engine can close over its own
    state without perturbing construction order. *)

(** {1 Sending} *)

val send :
  'msg t ->
  src:Topology.vertex ->
  slot:int ->
  kind:[ `Announce | `Withdraw ] ->
  'msg ->
  unit
(** Send one message to the neighbour in [src]'s [slot], bumping the
    matching counter.
    Also used directly outside the MRAI regime (R-BGP failover paths,
    STAMP's immediate policy withdrawals). *)

type verdict =
  | Idle  (** nothing to send *)
  | Deferred  (** an announcement is due but MRAI holds it back *)
  | Withdraw  (** send a withdrawal now *)
  | Announce  (** send an announcement now *)

val advertise :
  'msg t ->
  proc:int ->
  src:Topology.vertex ->
  slot:int ->
  heard:bool ->
  wants:bool ->
  same:bool ->
  verdict
(** What to tell the neighbour in [src]'s [slot], given whether it [heard]
    something last, [wants] something now, and both are the [same]:
    withdrawals go at once, announcements under the [(src, slot, proc)]
    MRAI timer. A deferral is counted, traced and flushed once, through
    the {!on_flush} handler. On {!Withdraw} or {!Announce} the engine
    records what the neighbour hears and {!send}s the message. {!Idle}
    while the link is down. *)

val on_flush :
  'msg t -> (src:Topology.vertex -> slot:int -> proc:int -> unit) -> unit
(** Install the engine's flush handler: it re-advertises to [src]'s
    [slot] on process [proc] when a deferred MRAI flush fires. *)

val flush_pending :
  'msg t -> proc:int -> src:Topology.vertex -> slot:int -> bool
(** Whether a deferred MRAI flush is scheduled for the neighbour in
    [src]'s [slot] and process [proc]: where a repeated {!advertise} with
    an unchanged [desired] value can still do something. *)

(** {1 Failure bookkeeping} *)

val fail_link :
  'msg t -> Topology.vertex -> Topology.vertex -> react:(unit -> unit) -> unit
(** Mark the link down (data plane breaks now) and run [react] — the
    engine's session-reset logic — immediately, or after the core's
    [detect_delay] if positive. A delayed [react] is dropped when the link
    recovers, or fails again, before it runs: a failure detected only
    after its link came back was never detected, and the recovery's own
    session reset has already run.
    @raise Invalid_argument if the vertices are not adjacent. *)

val recover_link :
  'msg t -> Topology.vertex -> Topology.vertex -> react:(unit -> unit) -> unit
(** Mark the link up and run [react] (session re-establishment) at once.
    @raise Invalid_argument if the vertices are not adjacent. *)

val fail_node : 'msg t -> Topology.vertex -> unit
val recover_node : 'msg t -> Topology.vertex -> unit

val slot : 'msg t -> op:string -> Topology.vertex -> Topology.vertex -> int
(** [slot core ~op u v]: [v]'s slot at [u], for engine operations named by
    a vertex pair.
    @raise Invalid_argument ["<who>.<op>: vertices not adjacent"] when the
    pair shares no link. *)

(** {1 Observation} *)

val links : 'msg t -> Link_state.t
val link_up : 'msg t -> Topology.vertex -> Topology.vertex -> bool
val node_up : 'msg t -> Topology.vertex -> bool

val counters : 'msg t -> Counters.t
(** Live counters (mutated as the engine runs); snapshot before storing. *)

val message_count : 'msg t -> int
(** Updates sent so far (announcements + withdrawals). *)

val last_change : 'msg t -> float
(** Time of the most recent {!note_decision} (0. if none): the convergence
    instant once the queue drains. *)

(** {1 Forwarding plane: the dirty set}

    An engine installs its forwarding step once ({!on_forward}); a probe
    ({!probe}) then re-walks only what changed since the previous one. The
    core keeps a dirty set of vertices: a probe re-steps the dirty
    vertices' (vertex, packet state) cells, and re-walks only the cells
    upstream of those whose step code changed ({!Fwd_walk.refresh}).

    Contract: every write that can change what [step v s] or [start v]
    returns must mark [v] ({!mark_fwd}) before the next probe.
    - The core marks [node] in {!note_decision}: a best-route change, and
      with it STAMP's [unstable] flips and start colour and R-BGP's
      withdrawn route, which change only in the same decision step at the
      same vertex.
    - The core marks both endpoints in {!fail_link} (at the failure
      instant) and {!recover_link}, and every vertex in {!fail_node} and
      {!recover_node}: a step reads the {!links} overlay at its own
      vertex. R-BGP's pinned failover paths read links along whole paths,
      so R-BGP marks every vertex ({!mark_all_fwd}) at its own link
      events. Writes to the overlay go through this module only.
    - Engines mark the vertex for any other forwarding input they keep:
      the hybrid's backup route, R-BGP's failover RIB, and R-BGP's RCI
      purge of its failover RIB and withdrawn route. This includes writes
      in a [react] run after the failure instant: a delayed [react] runs
      with no mark of its own. (The failover entry a session reset clears
      is the one over the failed link, which no step reads while the link
      is down.)

    Invariant: an array returned by {!probe} is never mutated — not by
    the core, an engine, the monitor or a caller. A probe after which no
    status moved returns the very array of the previous probe. *)

val on_forward :
  'msg t ->
  dest:Topology.vertex ->
  num_states:int ->
  start:(Topology.vertex -> int) ->
  step:(Topology.vertex -> int -> int) ->
  unit
(** Install the engine's forwarding step, encoded as for
    {!Fwd_walk.walk_all}. Like {!on_receive}, kept separate from {!create}
    so the step can close over the engine's own state.
    @raise Invalid_argument on [num_states < 1]. *)

val mark_fwd : 'msg t -> Topology.vertex -> unit
(** [mark_fwd core v]: [v]'s forwarding step or start state may have
    changed; the next {!probe} re-steps it. *)

val mark_all_fwd : 'msg t -> unit
(** Every vertex's step may have changed. *)

val probe : 'msg t -> Fwd_walk.status array
(** Forwarding-plane status of every AS right now, walking only the
    upstream cone of the changed cells. The very array of the previous
    probe when no status moved.
    @raise Invalid_argument before {!on_forward}. *)

val fresh_walk : 'msg t -> Fwd_walk.status array
(** A walk from scratch over the installed step, leaving the dirty set
    and the probe state untouched: the reference {!probe} is tested
    against.
    @raise Invalid_argument before {!on_forward}. *)

(** {1 Tracing} *)

val trace_enabled : 'msg t -> bool

val note_decision :
  'msg t ->
  node:Topology.vertex ->
  old_next:Topology.vertex ->
  new_next:Topology.vertex ->
  prefix:string ->
  cause:string ->
  unit
(** Record a best-route change: moves {!last_change}, marks [node] dirty
    ({!mark_fwd}) and emits a {!Trace.Decision} event at the router, with
    cause [prefix ^ cause] (next hops are translated to ASN space; [-1] =
    no route or the origin's own route). The side effects other than the
    event are unconditional, so engines call this at every best-route
    change whether or not tracing is on. *)

val emit_node : 'msg t -> Topology.vertex -> Trace.kind -> unit
(** Emit an engine-specific event located at a router (ASN-translated),
    stamped with the core's [who] and the current virtual time. No-op when
    tracing is off — but build the kind under {!trace_enabled} if it
    allocates. *)
