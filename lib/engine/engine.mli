(** First-class protocol engines: the full lifecycle every routing process
    in this repository exposes — construction, start, failure/recovery and
    policy events, the forwarding-plane probe and the update counters —
    captured as a module type, plus packed instances.

    Analysis code (Runner, Experiment, the benches, conformance tests) is
    generic over {!S}: a new protocol is written on [Process] (one routing
    process's RIBs, decision and export, in lib/bgp) plus {!Session_core}
    (sessions, MRAI, failures), supplying only its attributes, import /
    export plan and extra state; its adapter [include]s the network module
    and adds [name], [create] and [probe], and it joins [Runner.engines] —
    nothing else changes. *)

type config = {
  seed : int;
      (** protocol-level seeding beyond the simulation RNG (e.g. STAMP's
          coloring draw) *)
  mrai_base : float;  (** MRAI base interval in seconds (paper: 30 s) *)
  detect_delay : float;
      (** seconds between a link failing and the adjacent routers reacting
          (0 = instantaneous detection) *)
  trace : Trace.sink;
      (** where the engine's session substrate sends structured trace
          events ({!Trace.null} = tracing off, the default — guaranteed
          bit-identical to an untraced run) *)
}

val default_config : config
(** The paper's parameters: seed 0, MRAI 30 s, instantaneous failure
    detection, no tracing. Message delays are always the paper's
    U[10 ms, 20 ms] (fixed in {!Session_core}). *)

(** The engine lifecycle. All failure/recovery and policy operations take
    effect at the current simulation time. *)
module type S = sig
  type t

  val name : string
  (** Display name, also the key in [Runner.engines] (e.g.
      ["R-BGP without RCI"]). *)

  val create : Sim.t -> Topology.t -> dest:Topology.vertex -> config -> t
  (** Build the network for one destination. Nothing is announced until
      {!start}. *)

  val start : t -> unit
  (** The destination originates its prefix; run the sim to converge. *)

  val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
  val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
  val fail_node : t -> Topology.vertex -> unit
  val recover_node : t -> Topology.vertex -> unit
  val deny_export : t -> Topology.vertex -> Topology.vertex -> unit
  val allow_export : t -> Topology.vertex -> Topology.vertex -> unit

  val probe : t -> Fwd_walk.status array
  (** Forwarding-plane status of every AS right now, re-walking only the
      upstream cone of the forwarding cells that changed since the last
      probe ({!Session_core.probe}). The result is the very array the
      previous probe returned exactly when no status moved, and must not
      be mutated. *)

  val fresh_walk : t -> Fwd_walk.status array
  (** The same statuses walked from scratch, without touching the probe
      state: the reference {!probe} is tested against. *)

  val message_count : t -> int
  val last_change : t -> float
  val counters : t -> Counters.t
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance
(** A packed engine: implementation and network value together, so driver
    code can hold heterogeneous engines in one list. *)

val create :
  (module S) -> Sim.t -> Topology.t -> dest:Topology.vertex -> config -> instance

(** Generic accessors over a packed instance. *)

val name : instance -> string
val start : instance -> unit
val fail_link : instance -> Topology.vertex -> Topology.vertex -> unit
val recover_link : instance -> Topology.vertex -> Topology.vertex -> unit
val fail_node : instance -> Topology.vertex -> unit
val recover_node : instance -> Topology.vertex -> unit
val deny_export : instance -> Topology.vertex -> Topology.vertex -> unit
val allow_export : instance -> Topology.vertex -> Topology.vertex -> unit
val probe : instance -> Fwd_walk.status array
val fresh_walk : instance -> Fwd_walk.status array
val message_count : instance -> int
val last_change : instance -> float
val counters : instance -> Counters.t
