(** The protocol/queue combinations the paper compares:

    - PERT over DropTail (the contribution),
    - SACK over DropTail,
    - ECN-enabled SACK over (adaptive, gentle) RED,
    - TCP Vegas over DropTail,
    - PERT/PI over DropTail and ECN-enabled SACK over a router PI queue
      (Section 6). *)

type t =
  | Pert
  | Pert_tuned of {
      curve : Pert_core.Response_curve.t;
      alpha : float;
      decrease_factor : float;
      limit_per_rtt : bool;
    }  (** PERT with non-default knobs — used by the ablation study *)
  | Pert_ecn
      (** PERT flows that are additionally ECN-capable, over a marking
          RED bottleneck — used by the fault suite to study ECN
          bleaching: with marks bleached it degrades to plain PERT *)
  | Sack_droptail
  | Sack_red_ecn
  | Vegas
  | Pert_pi of { target_delay : Units.Time.t }
  | Sack_pi_ecn of { target_delay : Units.Time.t }
  | Pert_rem  (** end-host REM emulation (paper's future-work direction) *)
  | Pert_avq  (** end-host AVQ emulation (paper's future-work direction) *)
  | Sack_rem_ecn  (** router REM with ECN *)
  | Sack_avq_ecn  (** router AVQ with ECN *)

val name : t -> string

val of_string : string -> (t, string) result
(** The scheme a name denotes: the inverse of {!name} for every scheme
    but [Pert_tuned], which has no name of its own. [pert-pi] and
    [sack-pi-ecn] get a 3 ms target delay. Aliases: [sack], [droptail]
    and [newreno] for [sack-droptail]; [red], [pi], [rem] and [avq] for
    SACK with ECN over that router queue. The error names the unknown
    scheme. *)

val all_fig4_schemes : t list
(** The four schemes of Sections 4.1–4.7, in paper order:
    PERT, SACK/DropTail, SACK/RED-ECN, Vegas. *)

val uses_ecn : t -> bool

(** Everything the scheme needs to know about the scenario to configure
    its queue and controller. *)
type ctx = {
  sim : Sim_engine.Sim.t;
  capacity_pps : float;  (** bottleneck capacity in data packets/s *)
  limit_pkts : int;  (** bottleneck buffer *)
  rtt : float;  (** representative RTT, s (for PI gain design) *)
  nflows : int;  (** representative long-flow count (PI gain design) *)
}

val bottleneck_disc : t -> ctx -> Netsim.Queue_disc.t
(** Queue discipline for a bottleneck link under this scheme. *)

val cc_factory : t -> ctx -> unit -> Tcpstack.Cc.t
(** Congestion controller for each flow under this scheme. *)

(* Kept with no caller that pertscan reads: the benchmark's snapshot
   round trip (bench_e2e/e2e.ml, outside the scanned tree) still calls
   both. A {!Sim.Snapshot} load restores every discipline and
   controller ready to run, so both do nothing. *)
val rehydrate_disc : Netsim.Queue_disc.t -> unit [@@lint.allow "S3"]
val rehydrate_cc : Tcpstack.Cc.t -> unit [@@lint.allow "S3"]
