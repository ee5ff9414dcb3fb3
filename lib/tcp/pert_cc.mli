(** PERT congestion control: Reno-style window increase plus the
    probabilistic early response of {!Pert_core.Pert_red} — the paper's
    primary contribution, bound to the simulator's TCP sender. *)

val create :
  rng:Sim_engine.Rng.t ->
  ?curve:Pert_core.Response_curve.t ->
  ?alpha:float ->
  ?decrease_factor:float ->
  ?limit_per_rtt:bool ->
  unit ->
  Cc.t
(** [alpha] is the srtt history weight (default 0.99); [decrease_factor]
    the early multiplicative decrease (default 0.35). *)
