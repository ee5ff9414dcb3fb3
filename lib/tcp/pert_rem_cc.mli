(** PERT/REM congestion control: Reno-style increase plus the end-host
    REM price controller of {!Pert_core.Pert_rem} driving the early
    response. *)

val create :
  rng:Sim_engine.Rng.t ->
  ?params:Pert_core.Pert_rem.params ->
  ?srtt_alpha:float ->
  ?decrease_factor:float ->
  unit ->
  Cc.t
