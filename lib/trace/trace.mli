(** Structured event tracing for simulation runs.

    Every interesting in-sim occurrence — message enqueue/delivery per
    session channel, MRAI deferrals and flushes, per-AS decision changes,
    STAMP instability/[ET] transitions, session resets, scenario events,
    forwarding-status changes and run-phase markers — is emitted as a typed
    {!event} stamped with virtual time, a location (AS or directed link, in
    ASN space) and the id of the emitting engine.

    Events flow into a {!sink}: {!null} (tracing off — the default
    everywhere), {!memory} (in-process buffer) or
    {!stream} (JSON-lines to an output channel, one event per line).

    Zero-cost-when-off contract: with the {!null} sink, {!enabled} is
    [false] and every emission site is guarded by it, so an untraced run
    performs no allocation and — crucially — draws no randomness and
    schedules no events for the trace. Traced and untraced runs are
    bit-identical in every measured quantity; the trace is pure
    observation. *)

(** {1 Events} *)

type msg_kind = Announce | Withdraw

type location =
  | Net  (** whole-run events: phases, run-level markers *)
  | Node of int  (** an AS, identified by ASN *)
  | Link of int * int  (** a directed link [src -> dst], ASN space *)

type kind =
  | Enqueue of { msg : msg_kind; deliver_at : float }
      (** a protocol update entered the channel; [deliver_at] is its
          already-determined (FIFO-adjusted) delivery instant *)
  | Deliver  (** the channel handed the message to the receiving router *)
  | Drop  (** an in-flight message was lost to a session reset *)
  | Mrai_defer of { until : float; proc : int }
      (** an announcement was deferred by the MRAI timer of process
          [proc]; a flush is (or was already) scheduled for [until] *)
  | Mrai_flush of { proc : int }  (** a scheduled MRAI flush fired *)
  | Decision of { old_next : int option; new_next : int option; cause : string }
      (** a router's best route changed: next hops in ASN space, [None]
          for no route (or the origin's own route) *)
  | Recolor of { color : string; et_ok : bool }
      (** STAMP: a process's instability flag flipped — [et_ok = false]
          when a route loss marked subsequent updates [ET=0] (packets
          re-colour away from the process), [true] when it restabilised *)
  | Session_reset  (** link/node went down; in-flight messages will drop *)
  | Session_up  (** link/node came back; sessions re-establish *)
  | Scenario_event of string  (** an injected scenario event, pretty-printed *)
  | Status of { status : string; changed : bool }
      (** forwarding-plane status of an AS at a monitor checkpoint
          ([Fwd_walk.string_of_status]'s names); [changed] is [false]
          for the baseline snapshot at the event instant and for final-state
          corrections, [true] for a genuine change between checkpoints *)
  | Phase of string
      (** run-phase marker: ["start"], ["initial-converged"],
          ["events-injected"], ["final"] *)

type event = {
  vtime : float;  (** virtual time of emission *)
  seq : int;  (** per-sink emission index (0-based) *)
  engine : string;  (** emitting engine id *)
  loc : location;
  kind : kind;
}

(** {1 Sinks} *)

type sink

val null : sink
(** The off switch: {!enabled} is [false], {!emit} is a no-op. *)

val memory : unit -> sink
(** In-process buffer that keeps every event. *)

val stream : out_channel -> sink
(** JSON-lines streaming sink: each event is written with {!to_json} plus a
    newline as it is emitted. The caller owns (flushes, closes) the
    channel. {!events} returns [[]] for stream sinks. *)

val enabled : sink -> bool
(** [false] only for {!null}. Every emission site must be guarded with this
    so the off path costs one branch and no allocation. *)

val readable : sink -> bool
(** Whether {!events} can reproduce the trace ([true] for memory sinks). *)

val emit :
  sink -> vtime:float -> engine:string -> loc:location -> kind -> unit
(** Record one event, assigning the next sequence number. No-op on
    {!null}. *)

val events : sink -> event list
(** Chronological contents of a memory sink ([[]] for null/stream). *)

val recorded : sink -> int
(** Total events emitted into the sink. *)

(** {1 Serialisation (JSONL)} *)

val to_json : event -> string
(** One flat JSON object, no trailing newline. Floats are printed with
    [%.17g] so parsing is exact and golden files are stable. *)

val of_json : string -> event
(** Inverse of {!to_json}.
    @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> event -> unit
(** Human-oriented one-line rendering. *)

(** {1 Normalisation and diffing} *)

val normalize : event list -> event list
(** Canonical form for golden comparisons: sequence numbers are zeroed and
    events sharing one virtual time are sorted by their serialised form, so
    incidental emission-order differences (e.g. hash-table iteration) never
    show up as trace differences. Cross-checkpoint order is untouched. *)

val equal_event : event -> event -> bool

val diff : event list -> event list -> (int * event option * event option) list
(** Positional differences between two {e normalised} traces: indices where
    the events differ, with [None] marking the shorter side's end. Empty
    when the traces are identical. *)

(** {1 Filtering} *)

val mentions_node : event -> int -> bool
(** Whether the event's location involves the ASN (node or link endpoint). *)

val kind_label : event -> string
(** Stable lower-case label of the event kind (["enqueue"], ["deliver"],
    ["drop"], ["mrai-defer"], ["mrai-flush"], ["decision"], ["recolor"],
    ["session-reset"], ["session-up"], ["scenario"], ["status"],
    ["phase"]). *)
