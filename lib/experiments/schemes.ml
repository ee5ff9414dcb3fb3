module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng

type t =
  | Pert
  | Pert_tuned of {
      curve : Pert_core.Response_curve.t;
      alpha : float;
      decrease_factor : float;
      limit_per_rtt : bool;
    }
  | Pert_ecn
  | Sack_droptail
  | Sack_red_ecn
  | Vegas
  | Pert_pi of { target_delay : Units.Time.t }
  | Sack_pi_ecn of { target_delay : Units.Time.t }
  | Pert_rem
  | Pert_avq
  | Sack_rem_ecn
  | Sack_avq_ecn

let name = function
  | Pert -> "pert"
  | Pert_ecn -> "pert-ecn"
  | Pert_tuned _ -> "pert-tuned"
  | Sack_droptail -> "sack-droptail"
  | Sack_red_ecn -> "sack-red-ecn"
  | Vegas -> "vegas"
  | Pert_pi _ -> "pert-pi"
  | Sack_pi_ecn _ -> "sack-pi-ecn"
  | Pert_rem -> "pert-rem"
  | Pert_avq -> "pert-avq"
  | Sack_rem_ecn -> "sack-rem-ecn"
  | Sack_avq_ecn -> "sack-avq-ecn"

(* Aliases: the bare AQM name picks SACK over that queue, and
   [droptail]/[newreno] name plain SACK over DropTail, so the queue and
   controller names of a scenario file parse through this same table. *)
let of_string s =
  let pi_target = Units.Time.s 0.003 in
  match s with
  | "pert" -> Ok Pert
  | "pert-ecn" -> Ok Pert_ecn
  | "sack-droptail" | "sack" | "droptail" | "newreno" -> Ok Sack_droptail
  | "sack-red-ecn" | "red" -> Ok Sack_red_ecn
  | "vegas" -> Ok Vegas
  | "pert-pi" -> Ok (Pert_pi { target_delay = pi_target })
  | "sack-pi-ecn" | "pi" -> Ok (Sack_pi_ecn { target_delay = pi_target })
  | "pert-rem" -> Ok Pert_rem
  | "pert-avq" -> Ok Pert_avq
  | "sack-rem-ecn" | "rem" -> Ok Sack_rem_ecn
  | "sack-avq-ecn" | "avq" -> Ok Sack_avq_ecn
  | _ -> Error (Printf.sprintf "unknown scheme %S" s)

let all_fig4_schemes = [ Pert; Sack_droptail; Sack_red_ecn; Vegas ]

let uses_ecn = function
  | Pert_ecn | Sack_red_ecn | Sack_pi_ecn _ | Sack_rem_ecn | Sack_avq_ecn ->
      true
  | Pert | Pert_tuned _ | Sack_droptail | Vegas | Pert_pi _ | Pert_rem
  | Pert_avq ->
      false

type ctx = {
  sim : Sim_engine.Sim.t;
  capacity_pps : float;
  limit_pkts : int;
  rtt : float;
  nflows : int;
}

let router_pi_params ctx ~target_delay =
  let gains =
    Fluid.Stability.router_pi_gains ~c:ctx.capacity_pps
      ~n_min:(float_of_int (max 1 ctx.nflows))
      ~r_plus:ctx.rtt ~r_star:ctx.rtt
  in
  let sample_interval = ctx.rtt /. 10.0 in
  let d =
    Pert_core.Pert_pi.gains_of_pi ~k:gains.Fluid.Stability.k
      ~m:gains.Fluid.Stability.m ~delta:sample_interval
  in
  {
    Netsim.Pi_queue.a = d.Pert_core.Pert_pi.gamma;
    b = d.Pert_core.Pert_pi.beta;
    q_ref = Units.Time.to_s target_delay *. ctx.capacity_pps;
    sample_interval = Units.Time.s sample_interval;
    ecn = true;
  }

let bottleneck_disc t ctx =
  match t with
  | Pert | Pert_tuned _ | Vegas | Sack_droptail | Pert_pi _ | Pert_rem
  | Pert_avq ->
      Netsim.Droptail.create ~limit_pkts:ctx.limit_pkts
  | Sack_rem_ecn ->
      Netsim.Rem.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~params:(Netsim.Rem.default_params ~capacity_pps:ctx.capacity_pps)
        ~capacity_pps:ctx.capacity_pps ~limit_pkts:ctx.limit_pkts
  | Sack_avq_ecn ->
      Netsim.Avq.create
        ~params:(Netsim.Avq.default_params ())
        ~capacity_pps:ctx.capacity_pps ~limit_pkts:ctx.limit_pkts
  | Pert_ecn | Sack_red_ecn ->
      let params =
        Netsim.Red.auto_params ~capacity_pps:ctx.capacity_pps
          ~limit_pkts:ctx.limit_pkts ()
      in
      Netsim.Red.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~params ~capacity_pps:ctx.capacity_pps ~limit_pkts:ctx.limit_pkts
  | Sack_pi_ecn { target_delay } ->
      Netsim.Pi_queue.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~params:(router_pi_params ctx ~target_delay)
        ~limit_pkts:ctx.limit_pkts

let cc_factory t ctx () =
  match t with
  | Sack_droptail | Sack_red_ecn | Sack_pi_ecn _ | Sack_rem_ecn | Sack_avq_ecn
    ->
      Tcpstack.Cc.newreno ()
  | Vegas -> Tcpstack.Vegas.create ()
  | Pert | Pert_ecn ->
      Tcpstack.Pert_cc.create ~rng:(Rng.split (Sim.rng ctx.sim)) ()
  | Pert_rem -> Tcpstack.Pert_rem_cc.create ~rng:(Rng.split (Sim.rng ctx.sim)) ()
  | Pert_avq -> Tcpstack.Pert_avq_cc.create ~rng:(Rng.split (Sim.rng ctx.sim)) ()
  | Pert_tuned { curve; alpha; decrease_factor; limit_per_rtt } ->
      Tcpstack.Pert_cc.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~curve ~alpha ~decrease_factor ~limit_per_rtt ()
  | Pert_pi { target_delay } ->
      let gains =
        Fluid.Stability.pert_pi_gains ~c:ctx.capacity_pps
          ~n_min:(float_of_int (max 1 ctx.nflows))
          ~r_plus:ctx.rtt ~r_star:ctx.rtt
      in
      let sample_interval = ctx.rtt /. 10.0 in
      let d =
        Pert_core.Pert_pi.gains_of_pi ~k:gains.Fluid.Stability.k
          ~m:gains.Fluid.Stability.m ~delta:sample_interval
      in
      Tcpstack.Pert_pi_cc.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~gains:d ~target_delay
        ~sample_interval:(Units.Time.s sample_interval) ()

(* --- restore-time rehydration ------------------------------------------ *)

(* Extension-constructor values ({!Netsim.Queue_disc.internals},
   {!Tcpstack.Cc.engine}) do not survive {!Sim.Snapshot}'s Marshal round
   trip; dispatch on the stable [name] string (never on the constructor,
   which is exactly what is broken here) and let each concrete module
   rebuild its own value around the preserved payload. *)
let rehydrate_disc disc =
  match disc.Netsim.Queue_disc.name with
  | "droptail" -> Netsim.Droptail.rehydrate disc
  | "red" -> Netsim.Red.rehydrate disc
  | "pi" -> Netsim.Pi_queue.rehydrate disc
  | "rem" -> Netsim.Rem.rehydrate disc
  | "avq" -> Netsim.Avq.rehydrate disc
  | other -> invalid_arg ("Schemes.rehydrate_disc: unknown discipline " ^ other)

let rehydrate_cc cc =
  match cc.Tcpstack.Cc.name with
  | "newreno" | "vegas" -> cc.Tcpstack.Cc.engine <- Tcpstack.Cc.No_engine
  | "pert" -> Tcpstack.Pert_cc.rehydrate cc
  | "pert-rem" -> Tcpstack.Pert_rem_cc.rehydrate cc
  | "pert-avq" -> Tcpstack.Pert_avq_cc.rehydrate cc
  | "pert-pi" -> Tcpstack.Pert_pi_cc.rehydrate cc
  | other -> invalid_arg ("Schemes.rehydrate_cc: unknown controller " ^ other)
