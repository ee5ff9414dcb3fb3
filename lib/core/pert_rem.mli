(** End-host emulation of REM (Random Exponential Marking) — the paper's
    "other AQM schemes can be potentially emulated" direction, made
    concrete.

    REM's router-side price integrates backlog and rate mismatch. At the
    end host both are visible in delay units: the backlog is the estimated
    queueing delay [Tq], and the rate mismatch is its growth, since
    [dTq/dt = (input - capacity) / capacity]. On a fixed sampling clock:

    [price(k+1) = max 0 (price(k)
                         + kappa * (alpha * (Tq(k) - tq_ref)
                                    + (Tq(k) - Tq(k-1))))]

    with response probability [1 - phi ** (-. price)] per ACK, at most
    once per RTT, exactly as in {!Pert_red}. *)

type decision = Hold | Early_response

type params = {
  kappa : float;  (** price gain, 1/seconds-of-delay *)
  alpha : float;  (** weight of the standing-delay term *)
  tq_ref : Units.Time.t;  (** target queueing delay *)
  phi : float;  (** marking base, > 1 *)
  sample_interval : Units.Time.t;
}

val default_params : params
(** [kappa = 20.], [alpha = 0.3], [tq_ref = 5 ms], [phi = 1.05],
    [sample_interval = 10 ms]. *)

type t

val create :
  ?srtt_alpha:float -> ?decrease_factor:float -> params:params -> unit -> t

val on_ack : t -> now:float -> rtt:Units.Time.t -> u:float -> decision
val probability : t -> Units.Prob.t
val price : t -> float
val decrease_factor : t -> float
val early_responses : t -> int
val note_loss : t -> now:float -> unit
