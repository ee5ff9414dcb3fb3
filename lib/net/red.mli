(** RED (Random Early Detection) active queue management, ns-2 flavoured:
    EWMA of the instantaneous queue length with idle-time compensation,
    count-corrected marking probability, optional "gentle" region between
    [max_th] and [2 max_th], optional ECN marking, and optional Adaptive-RED
    [max_p] tuning (Floyd, Gummadi, Shenker 2001).

    Used as the router baseline "SACK/RED-ECN" throughout the paper's
    evaluation (with the adaptive variant, see Section 4.2). *)

type params = {
  wq : float;  (** EWMA weight of the instantaneous queue *)
  min_th : float;  (** packets *)
  max_th : float;  (** packets *)
  max_p : Units.Prob.t;
  gentle : bool;
  adaptive : bool;
  ecn : bool;  (** mark ECN-capable packets instead of dropping *)
}

val auto_params :
  ?target_delay:Units.Time.t -> ?gentle:bool -> ?adaptive:bool -> ?ecn:bool ->
  capacity_pps:float -> limit_pkts:int -> unit -> params
(** Adaptive-RED automatic configuration: [wq = 1 - exp (-1 /. capacity)],
    [min_th = max 5 (capacity *. target_delay /. 2.)] clamped to the buffer,
    [max_th = 3 min_th], [max_p = 0.1]. [target_delay] defaults to 5 ms. *)

type t
(** A RED queue: its discipline and its control state. *)

val create :
  rng:Sim_engine.Rng.t -> params:params -> capacity_pps:float ->
  limit_pkts:int -> t
(** [capacity_pps] (packets/second at MSS size) calibrates the idle-time
    decay of the average. *)

val disc : t -> Queue_disc.t
(** The discipline to install on a link. *)

val avg_queue : t -> float
(** Current averaged queue length. *)

val current_max_p : t -> Units.Prob.t
(** Current [max_p] (changes under adaptive mode). *)
