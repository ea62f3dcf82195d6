(** Per-engine update-traffic counters, maintained by {!Session_core} for
    every protocol uniformly: what was sent (announcements, withdrawals),
    how often the MRAI timer held an announcement back, and how many
    in-flight messages a session reset destroyed. One instance per engine
    per run; reports snapshot it at measurement time. *)

type t = {
  mutable announcements : int;
  mutable withdrawals : int;
  mutable mrai_deferrals : int;
      (** advertisement attempts deferred because the per-peer MRAI timer
          was not yet ready (each deferred attempt counts, whether or not a
          flush was already scheduled) *)
  mutable lost_to_resets : int;
      (** messages that were in flight on a link when it (or an endpoint
          node) went down, and were therefore never delivered *)
}

val make : unit -> t
(** All zeros. *)

val snapshot : t -> t
(** An independent copy, immune to further engine activity. *)

val messages : t -> int
(** [announcements + withdrawals]: every update the engine sent. *)

val non_negative : t -> bool

val pp : Format.formatter -> t -> unit
