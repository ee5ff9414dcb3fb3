(** PERT/PI congestion control (paper Section 6): Reno-style increase plus
    the end-host PI controller of {!Pert_core.Pert_pi} driving the early
    response probability. *)

val create :
  rng:Sim_engine.Rng.t ->
  gains:Pert_core.Pert_pi.gains ->
  target_delay:Units.Time.t ->
  sample_interval:Units.Time.t ->
  ?alpha:float ->
  ?decrease_factor:float ->
  unit ->
  Cc.t
