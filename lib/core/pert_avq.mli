(** End-host emulation of AVQ (Adaptive Virtual Queue) — the last entry on
    the paper's list of candidate AQM schemes to emulate.

    AVQ marks when a virtual queue served at [gamma * C] overflows. In
    delay units the virtual backlog [V] (seconds) evolves, while the real
    queue is busy, as

    [V' = dTq/dt + (1 - gamma)]

    (the real input rate is [C (1 + dTq/dt)], the virtual service rate
    [gamma * C]); while the real queue is idle the virtual queue drains at
    [gamma]. The end host integrates this from its queueing-delay
    estimate on a fixed sampling clock and issues an early response —
    at most once per RTT — whenever [V] exceeds [v_thresh] (the virtual
    buffer, in seconds); responding resets [V], like a mark draining the
    burst.

    This is an original delay-domain transcription (the paper only names
    AVQ as future work); its fidelity claim is behavioural — early
    response before loss at a target utilisation [gamma] — not numeric
    equivalence with the router implementation. *)

type decision = Hold | Early_response

type params = {
  gamma : float;  (** target utilisation, e.g. 0.98 *)
  v_thresh : Units.Time.t;  (** virtual buffer in delay units, e.g. 10 ms *)
  sample_interval : Units.Time.t;
}

val default_params : params
(** [gamma = 0.98], [v_thresh = 10 ms], [sample_interval = 10 ms]. *)

type t

val create :
  ?srtt_alpha:float -> ?decrease_factor:float -> params:params -> unit -> t

val on_ack : t -> now:float -> rtt:Units.Time.t -> u:float -> decision
(** [u] is accepted for interface uniformity; AVQ's marking is
    deterministic (threshold-crossing), so it is ignored. *)

val virtual_backlog : t -> float

val decrease_factor : t -> float
val early_responses : t -> int
val note_loss : t -> now:float -> unit
