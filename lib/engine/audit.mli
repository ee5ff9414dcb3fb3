(** Opt-in runtime invariant auditing for simulations.

    An [Audit.t] runs a set of registered checks on a periodic simulated
    clock (a self-rescheduling {!Event.define_rec} tick), records any
    violations with the simulation time at which they were observed, and
    can arm the {!Sim.set_watchdog} livelock detector. It never throws:
    the point is to surface silent corruption (NaN propagation,
    packet-accounting drift, stalled event loops) with context instead
    of poisoning downstream results — callers decide whether a violation
    is fatal.

    Typical wiring (see {!Experiments.Dumbbell}): one audit per simulation,
    a packet-conservation check per link and a sanity check per flow. *)

type violation = { time : float; subject : string; message : string }

type t

val create : ?interval:Units.Time.t -> ?max_kept:int -> Sim.t -> t
(** [create ?interval ?max_kept sim] starts auditing [sim], running every
    registered check every [interval] (default 100 ms) of simulated time and
    keeping the first [max_kept] (default 100) violations verbatim (the
    total count is always exact). Checks can be registered after creation.

    The periodic tick also verifies clock monotonicity. Note the recurring
    tick keeps the event heap non-empty: run audited simulations with
    [Sim.run ~until], not to heap exhaustion. *)

val add_check : t -> subject:string -> (now:float -> string option) -> unit
(** [add_check t ~subject check] registers an invariant: [check ~now]
    returns [Some message] when violated, [None] when it holds. *)

val add_stall_check :
  t ->
  subject:string ->
  stall_after:Units.Time.t ->
  (unit -> int option) ->
  unit
(** [add_stall_check t ~subject ~stall_after probe] watches a progress
    counter. The probe returns [None] while no progress is expected
    (which resets the stall clock) and [Some counter] while the subject
    claims to be actively working. If the counter stays pinned for
    [stall_after] of simulated time, one violation is recorded; the
    check re-arms when the counter moves again. This is the deadlock
    tripwire for flows: {!Tcpstack.Flow.liveness} is the canonical
    probe. *)

val enable_watchdog : ?max_events_per_instant:int -> t -> unit
(** Arm {!Sim.set_watchdog} (default budget 1,000,000 events per instant);
    a trip is recorded as a violation on subject ["sim"] and stops the
    simulation instead of hanging forever. *)

(* Kept with no current caller: the documented extension point for
   event-driven guards; the periodic checks above are built on it. *)
val report : t -> now:float -> subject:string -> string -> unit
  [@@lint.allow "S3"]
(** Record a violation directly (for event-driven guards that don't fit
    the periodic-check shape). *)

val check_finite :
  t -> now:float -> subject:string -> what:string -> float -> bool
(** [check_finite t ~now ~subject ~what v] records a violation and returns
    [false] when [v] is NaN or infinite; returns [true] otherwise. *)

val violations : t -> violation list
(** The recorded violations, oldest first (capped at [max_kept]). *)

val violation_count : t -> int
(** Exact total number of violations observed, including dropped ones. *)

val ok : t -> bool
(** [violation_count t = 0]. *)

val summary : t -> string
(** One-line human-readable verdict, naming the first violation if any. *)
