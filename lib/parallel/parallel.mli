(** Work-queue domain pool for mutually independent simulation tasks.

    Every [Sim.t] is a self-contained deterministic island (no
    module-level mutable state — pertlint D1–D3), so independent
    experiment runs can execute on separate domains without sharing
    anything. This module is the only sanctioned home for
    [Domain]/[Mutex]/[Condition] in [lib/] (pertlint rule P1).

    [jobs = N] runs tasks on N worker domains, spawned one per
    submission until N exist, while the submitting domain waits in
    {!await}.

    Determinism contract: {!map} returns results in task order and runs
    each task exactly once, so for pure tasks the result is bit-for-bit
    identical for every [jobs] value, including the sequential [jobs = 1]
    fallback (which spawns no domain at all). *)

exception Task_error of { index : int; exn : exn }
(** A worker task raised [exn]; [index] is the task's 0-based position in
    the submission order. Raised by {!map} (and re-raised with the
    worker's backtrace) for the failing task with the smallest index. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — the default for
    [-j 0]/auto. *)

(** {1 Pools} *)

type t
(** A pool of at most [jobs] worker domains draining a shared task queue. *)

val create : jobs:int -> t
(** [create ~jobs] makes a pool of up to [max jobs 1] worker domains but
    spawns none: each {!submit} spawns one more while fewer than [jobs]
    exist, so a pool given fewer tasks than [jobs] spawns one worker per
    task. The submitting domain runs no task; it is expected to block in
    {!await}. With [jobs = 1] no domain is ever spawned and {!submit}
    runs tasks inline on the calling domain. Only the domain that
    created the pool may {!submit} to it or {!shutdown} it: that domain
    keeps the worker list, unsynchronized. *)

type 'a future

(* Kept with no in-tree caller outside this module: the pool's
   primitive operation ([map] and [submit_supervised] are built on it),
   and what the pertscan S1 fixtures drive directly (fixture trees are
   excluded from the repo scan, so those references don't count). *)
val submit : t -> (unit -> 'a) -> 'a future [@@lint.allow "S3"]
(** Enqueue a task, and spawn a worker if the pool has fewer than [jobs].
    Tasks must be independent: a task must not [submit] to (or [await] a
    future of) its own pool, or the pool can deadlock.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Block until the task has run. Never raises the task's exception —
    it is returned, with the backtrace captured on the worker. *)

val shutdown : t -> unit
(** Drain the queue, then join every worker spawned so far. Idempotent. *)

(** {1 One-shot parallel map} *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on a transient
    pool, which spawns one worker per task up to [jobs], and returns the
    results in list order. [jobs <= 1] (or a list shorter than 2)
    degrades to a sequential map with no domain spawned. Failures are
    uniform across every [jobs] value: a raising task is re-raised as
    {!Task_error} carrying its index and backtrace — sequentially that
    is the first failing task; on a pool the remaining tasks still run
    to completion and the failure with the smallest task index wins. *)

(** {1 Guarded shared state} *)

(** A value paired with a private [Mutex], usable only through a scoped
    critical section — the one sanctioned shape for state shared between
    the submitting context and pool tasks. pertscan's race detector (S1)
    treats accesses under {!Guard.with_} (like [Mutex.protect]) as
    synchronized; a bare [Mutex.lock]/[unlock] pair it cannot see. *)
module Guard : sig
  type 'a t

  val create : 'a -> 'a t

  val with_ : 'a t -> ('a -> 'b) -> 'b
  (** [with_ g f] runs [f] on the guarded value while holding the lock;
      the lock is released on return or exception, and every domain
      parked in {!wait} on [g] is woken. [f] must not [submit] to or
      [await] the pool (lock-ordering), and must not re-enter [with_] on
      the same guard ([Mutex] is not reentrant). *)

  val wait : 'a t -> unit
  (** [wait g], called only from inside [with_ g f], releases the lock
      until another [with_] on [g] has run, then takes it back: the
      caller re-reads the value and decides whether to wait again. This
      is how a task waits for a result another task is still computing
      instead of computing it a second time. *)
end

(** {1 Supervised tasks}

    Crash-safe task execution layered on {!submit}/{!await}: bounded
    retries with deterministic backoff, and timeout classification for
    cooperatively-enforced deadlines. *)

type attempt = {
  attempt : int;  (** 1-based attempt number *)
  error : string;  (** [Printexc.to_string] of what it raised *)
  backoff : Units.Time.t;
      (** pause honoured before the next attempt ([zero] on the last) *)
}

type 'a outcome =
  | Ok of 'a  (** some attempt succeeded *)
  | Failed of attempt list  (** every attempt raised; oldest first *)
  | Timed_out of { attempts : attempt list; reason : string }
      (** an attempt raised an exception classified by [is_timeout] —
          deadlines are final, so no retry is made *)

val submit_supervised :
  t ->
  ?deadline:Units.Time.t ->
  ?retries:int ->
  ?backoff:Units.Time.t ->
  ?is_timeout:(exn -> bool) ->
  ?checkpoint:string ->
  seed:int ->
  (deadline:Units.Time.t option -> 'a) ->
  'a outcome future
(** [submit_supervised t ~deadline ~retries ~backoff ~is_timeout ~seed f]
    enqueues [f], re-running it up to [retries] extra times when it
    raises. Domains cannot be killed, so the deadline is cooperative:
    [f] receives [~deadline] and is expected to bound itself (simulation
    tasks arm {!Sim_engine.Sim.set_budget} with it); an exception for
    which [is_timeout] holds (default: none) becomes {!Timed_out}
    without retrying. The pause before attempt [k+1] is
    [backoff * 2^k * u] with [u] drawn uniformly from [0.5, 1.5) by an
    {!Sim_engine.Rng} seeded with [seed] — never from the wall clock —
    so outcomes and attempt traces are byte-identical at any pool width
    (the pause is honoured by a bounded cpu-relax spin on multi-domain
    pools and skipped at [jobs = 1]). Defaults: [retries = 0],
    [backoff = 20ms], no deadline.

    [checkpoint] names the task's live snapshot file
    ({!Sim_engine.Sim.Snapshot}, written by the task itself): it is left
    untouched across retries — a restarted attempt that honours it
    resumes from the last committed snapshot instead of replaying the
    simulated prefix — and removed once an attempt succeeds.
    @raise Invalid_argument on negative [retries] or [backoff]. *)
