(** Discrete-event simulation core.

    A [Sim.t] owns a virtual clock, an event queue and a root random
    generator. Events ({!Event.t}) execute in nondecreasing time order;
    equal-time events run in scheduling order. *)

type t

val create : ?seed:int -> ?scheduler:[ `Heap | `Wheel ] -> unit -> t
(** [create ?seed ?scheduler ()] makes an empty simulation. Default seed
    is 42. [scheduler] picks the event store: [`Wheel] (default) is the
    amortized-O(1) calendar queue ({!Wheel}); [`Heap] the O(log n)
    binary heap ({!Heap}). Both obey the same [(time, seq)] ordering
    contract, so runs are byte-identical under either — the choice is
    purely a performance knob (and a cross-check in CI). *)

val scheduler : t -> [ `Heap | `Wheel ]
(** Which event store this simulation was created with. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** The simulation's root generator; components should {!Rng.split} it. *)

val fresh_id : t -> int
(** Per-simulation id allocator: 0, 1, 2, ... Entities (flows, CBR
    sources) draw their ids here so reruns of a simulation in the same
    process produce identical ids — a process-global counter would not
    replay. *)

val at : t -> Units.Time.t -> Event.t -> unit
(** [at t time ev] schedules the event [ev] at absolute [time].
    [time >= now t]. A pending {!Event.t} is plain data, so
    {!Snapshot.save} can write it. *)

val after : t -> Units.Time.t -> Event.t -> unit
(** [after t delay ev] schedules [ev] at [now t +. delay].
    [delay >= 0]. *)

val reserve : t -> int
(** [reserve t] draws the next tie-break number: the one the next
    {!at}/{!after} call would have used. {!at} is
    [at_reserved t time ~seq:(reserve t) ev].

    Equal-time events run in the order their numbers were drawn, so a
    component that defers an insertion keeps the event's place by
    drawing the number where it would have scheduled, and passing it to
    {!at_reserved} later. A link draws one per transmitted packet and
    keeps only the earliest delivery pending; a flow draws one per RTO
    restart and keeps one timer event pending. Draw a number only where
    an event would have been scheduled; every later event's number
    shifts otherwise. *)

val at_reserved : t -> Units.Time.t -> seq:int -> Event.t -> unit
(** [at_reserved t time ~seq ev] schedules [ev] at [time] under the
    reserved number [seq]. [time >= now t], as for {!at}. Insert each
    reserved number at most once, so that no two events share a key. *)

val stop : t -> unit
(** Stop the event loop after the current event returns. *)

val stopped : t -> bool
(** Whether {!stop} was called during the current/last {!run}. A
    periodic event — an {!Event.define_rec} kind that schedules its own
    successor — re-arms only while this is [false], so {!stop} ends it.
    Reset by the next {!run}. *)

val set_watchdog :
  t -> max_events_per_instant:int -> (string -> unit) -> unit
(** [set_watchdog t ~max_events_per_instant trip] arms a livelock detector:
    if more than [max_events_per_instant] events execute without the clock
    advancing (a zero-delay scheduling loop), [trip] is called once — per
    stuck instant — with a diagnostic. [trip] may call {!stop} to abort the
    run. Replaces any previous watchdog. *)

val clear_watchdog : t -> unit

exception
  Budget_exceeded of {
    events : int;  (** total events executed when the budget tripped *)
    now : Units.Time.t;  (** virtual time reached — the partial horizon *)
    exhausted : string;  (** ["max_events"] or ["max_wall"] *)
  }
(** Raised out of {!run} when an armed budget is exhausted. The payload is
    the partial progress; the simulation itself stays valid — the event
    that would have exceeded the budget is still queued, so after
    {!clear_budget} (or a fresh {!set_budget}) the run can be resumed
    with {!run}. *)

val set_budget : t -> ?max_events:int -> ?max_wall:Units.Time.t -> unit -> unit
(** [set_budget t ?max_events ?max_wall ()] arms a run budget, so a
    pathological parameter point terminates deterministically instead of
    hanging its domain: {!run} raises {!Budget_exceeded} once more than
    [max_events] further events execute, or once [max_wall] of wall-clock
    time elapses (sampled every few hundred events; this is the one
    sanctioned wall-clock read in the engine — it only decides whether to
    abort, never what is computed). [max_events] is relative to the events
    already executed and is fully deterministic; [max_wall] is a
    machine-dependent safety valve. At least one bound is required; both
    must be positive. Replaces any previous budget.
    @raise Invalid_argument on a non-positive or missing bound. *)

val clear_budget : t -> unit
(** Disarm the budget; {!run} resumes unbounded. *)

val charge_events : t -> int -> unit
(** [charge_events t n] reports [n] logical events materialized inside
    the currently-executing handler without individual scheduler events
    — batched link service unrolls k transmission completions inside one
    anchor event and charges them here. Keeps {!events_executed}, the
    [max_events] budget and the wall-clock sampling cadence counting
    logical events rather than scheduled ones. A charge that exhausts an
    armed budget never raises here, mid-handler: the loop trips
    {!Budget_exceeded} at the next event boundary, so the simulation is
    always in a snapshottable state when the exception escapes {!run}.
    @raise Invalid_argument if [n < 0]. *)

val run : ?until:Units.Time.t -> t -> unit
(** Execute events until the heap drains, [until] is reached (events
    scheduled strictly after [until] stay queued, the clock advances to
    [until]), or {!stop} is called.
    @raise Budget_exceeded when an armed {!set_budget} bound runs out. *)

val events_executed : t -> int
(** Total number of events executed so far (for benchmarks). *)

val pending : t -> int
(** Number of events currently queued. Links and flows keep one
    delivery event and one RTO event pending each, so this scales with
    links plus flows, not with packets in flight. *)

(** Live-state checkpoints: marshal the whole simulation mid-run and
    restore it — in this process or a fresh one running the same binary
    — to continue byte-identically.

    Soundness rests on three repo invariants. (1) Every pending event is
    defunctionalized plain data ({!Event.t}: a registered kind plus a
    marshalable payload). (2) lib/ keeps no module-toplevel mutable
    state (pertlint D3, pertscan S5), so the [Marshal.Closures] payload
    can't capture a module global that a restore would silently
    duplicate. (3) Code crosses only as pointers
    into the identical binary, enforced by the build-digest header.
    Extensible-variant values ([Queue_disc.internals], [Cc.engine])
    additionally need rehydration after [load] — extension constructors
    match by physical slot identity, which Marshal cannot preserve — see
    [Schemes.rehydrate] at the experiments layer. *)
module Snapshot : sig
  exception Incompatible of string
  (** Raised by {!load} when the file is not a snapshot, was written by
      a different build of the binary, or fails its checksum. *)

  val save : t -> world:'w -> path:string -> int
  (** [save t ~world ~path] atomically writes the full live state — the
      simulation and the caller's [world] (topology, flows, stats —
      everything the continuation needs) — to [path] via Store's
      temp+rename convention, and returns the byte size written. The
      header carries a build digest and a payload checksum; sharing
      between [world] and the event queue is preserved (one Marshal
      call covers both). *)

  val load : path:string -> t * 'w
  (** [load ~path] verifies the header and returns the simulation and
      world exactly as saved; an armed wall budget resumes from the wall
      time already consumed (recorded in the header), and the
      [max_events] budget, {!events_executed} and the wall-sampling
      cadence continue from their pre-snapshot values — do not re-arm
      {!set_budget} after a restore. Like [Marshal.from_string], the
      result type ['w] is trusted, not checked: annotate the call with
      the type that was saved.
      @raise Incompatible on any header or checksum mismatch. *)
end
