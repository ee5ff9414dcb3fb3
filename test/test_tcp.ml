(* Tests for the TCP stack: RTO estimation, the sender/receiver state
   machine (slow start, fast retransmit/recovery, SACK, timeouts, ECN),
   and the congestion-control variants. *)

module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module T = Netsim.Topology
module Link = Netsim.Link
module Packet = Netsim.Packet
open Tcpstack

let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ts = Units.Time.s
let tf = Units.Time.to_s

(* --- Rto ------------------------------------------------------------------- *)

let rto_initial_and_first_sample () =
  let r = Rto.create () in
  check_float_eps 1e-9 "initial" 1.0 (tf (Rto.value r));
  Alcotest.(check (option (float 0.0))) "no srtt yet" None (Option.map tf (Rto.srtt r));
  Rto.observe r (ts 0.1);
  (* srtt = 0.1, rttvar = 0.05, rto = 0.1 + 4*0.05 = 0.3 *)
  check_float_eps 1e-9 "after first sample" 0.3 (tf (Rto.value r));
  Alcotest.(check (option (float 1e-9))) "srtt" (Some 0.1) (Option.map tf (Rto.srtt r))

let rto_min_clamp () =
  let r = Rto.create () in
  for _ = 1 to 50 do
    Rto.observe r (ts 0.001)
  done;
  check_float_eps 1e-9 "clamped at min" 0.2 (tf (Rto.value r))

let rto_backoff_and_reset () =
  let r = Rto.create () in
  Rto.observe r (ts 0.1);
  let base = tf (Rto.value r) in
  Rto.backoff r;
  check_float_eps 1e-9 "doubled" (2.0 *. base) (tf (Rto.value r));
  Rto.backoff r;
  check_float_eps 1e-9 "doubled again" (4.0 *. base) (tf (Rto.value r));
  Rto.observe r (ts 0.1);
  (* a fresh sample resets the multiplier; rttvar has decayed (no error):
     rto = srtt + 4 * 0.75 * rttvar = 0.1 + 0.15 *)
  check_float_eps 1e-9 "sample resets backoff" 0.25 (tf (Rto.value r))

let rto_validation () =
  let r = Rto.create () in
  Alcotest.check_raises "bad sample"
    (Invalid_argument "Rto.observe: non-positive sample") (fun () ->
      Rto.observe r (ts 0.0))

let rto_rejects_non_finite () =
  let r = Rto.create () in
  Alcotest.check_raises "nan"
    (Invalid_argument "Units.Time.s: NaN") (fun () ->
      Rto.observe r (ts Float.nan));
  Alcotest.check_raises "infinity"
    (Invalid_argument "Rto.observe: non-finite sample") (fun () ->
      Rto.observe r (ts Float.infinity))

let rto_backoff_caps_at_max () =
  let r = Rto.create () in
  (* srtt 2, rttvar 1 -> rto 6 s; doubling must saturate at max_rto (60 s)
     and never overflow past it *)
  Rto.observe r (ts 2.0);
  for _ = 1 to 30 do
    Rto.backoff r
  done;
  check_float_eps 1e-9 "capped at max_rto" 60.0 (tf (Rto.value r));
  Rto.observe r (ts 2.0);
  check_bool "fresh sample resets the backoff" true (tf (Rto.value r) < 10.0);
  let r2 = Rto.create ~max_rto:(ts 2.0) () in
  Rto.observe r2 (ts 0.5);
  for _ = 1 to 10 do
    Rto.backoff r2
  done;
  check_float_eps 1e-9 "custom cap respected" 2.0 (tf (Rto.value r2))

(* --- congestion-control unit tests (drive the Cc.t record directly) ---------- *)

let reno_increase_rules () =
  let w = { Cc.Window.cwnd = 2.0; ssthresh = 8.0; in_slow_start = true } in
  Cc.reno_increase w ~newly_acked:2 ~rtt:None ~now:0.0;
  Alcotest.(check (float 1e-9)) "slow start adds acked" 4.0 w.Cc.Window.cwnd;
  Cc.reno_increase w ~newly_acked:4 ~rtt:None ~now:0.0;
  Alcotest.(check (float 1e-9)) "doubles again" 8.0 w.Cc.Window.cwnd;
  check_bool "leaves slow start at ssthresh" false w.Cc.Window.in_slow_start;
  let before = w.Cc.Window.cwnd in
  Cc.reno_increase w ~newly_acked:1 ~rtt:None ~now:0.0;
  Alcotest.(check (float 1e-9)) "congestion avoidance 1/cwnd"
    (before +. (1.0 /. before))
    w.Cc.Window.cwnd

let drive_vegas ~rtt_fn ~epochs =
  (* one synthetic "ACK" per 10 ms; epochs of ~one RTT each *)
  let cc = Vegas.create () in
  let w = { Cc.Window.cwnd = 20.0; ssthresh = 10.0; in_slow_start = false } in
  let now = ref 0.0 in
  for i = 0 to epochs * 10 do
    now := 0.01 *. float_of_int i;
    cc.Cc.on_ack w ~newly_acked:1 ~rtt:(Some (ts (rtt_fn i))) ~now:!now
  done;
  w.Cc.Window.cwnd

let vegas_increases_when_uncongested () =
  (* rtt = base: diff = 0 < alpha, +1 per epoch *)
  let final = drive_vegas ~rtt_fn:(fun _ -> 0.1) ~epochs:10 in
  check_bool "window grew additively" true (final > 21.0 && final < 35.0)

let vegas_decreases_when_backlogged () =
  (* first samples establish base = 50 ms, then rtt doubles:
     diff = 20 * (1 - 0.05/0.1) = 10 > beta -> -1 per epoch *)
  let final =
    drive_vegas ~rtt_fn:(fun i -> if i < 3 then 0.05 else 0.1) ~epochs:10
  in
  check_bool "window shrank" true (final < 20.0)

let vegas_holds_in_band () =
  (* base 100 ms, rtt 110 ms: diff = 20 * (1 - 100/110) ~ 1.8 in [1,3] *)
  let final =
    drive_vegas ~rtt_fn:(fun i -> if i < 3 then 0.1 else 0.11) ~epochs:10
  in
  check_bool "window held" true (Float.abs (final -. 20.0) <= 1.0)

(* --- dumbbell fixture --------------------------------------------------------- *)

type fixture = {
  sim : Sim.t;
  topo : T.t;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  bottleneck : Link.t;
}

(* src -- r1 ==bottleneck== r2 -- dst, 10 Mbps / ~24 ms RTT. The forward
   bottleneck discipline is pluggable so tests can inject loss. *)
let fixture ?(disc = fun (_ : Packet.arena) -> Netsim.Droptail.create ~limit_pkts:100)
    ?(seed = 11) () =
  let sim = Sim.create ~seed () in
  let topo = T.create sim in
  let src = T.add_node topo
  and r1 = T.add_node topo
  and r2 = T.add_node topo
  and dst = T.add_node topo in
  let fast () = Netsim.Droptail.create ~limit_pkts:10_000 in
  ignore
    (T.add_duplex topo ~a:src ~b:r1 ~bandwidth:(Units.Rate.bps 100e6) ~delay:(ts 0.001)
       ~disc_ab:(fast ()) ~disc_ba:(fast ()));
  let bottleneck =
    T.add_link topo ~src:r1 ~dst:r2 ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01) ~disc:(disc (T.arena topo))
  in
  ignore (T.add_link topo ~src:r2 ~dst:r1 ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01) ~disc:(fast ()));
  ignore
    (T.add_duplex topo ~a:r2 ~b:dst ~bandwidth:(Units.Rate.bps 100e6) ~delay:(ts 0.001)
       ~disc_ab:(fast ()) ~disc_ba:(fast ()));
  T.compute_routes topo;
  { sim; topo; src; dst; bottleneck }

(* A discipline that drops exactly the data packets whose (first-transmission)
   sequence numbers are in [victims]; everything else passes. *)
let scripted_drop arena victims =
  let inner = Netsim.Droptail.create ~limit_pkts:1000 in
  let remaining = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace remaining s ()) victims;
  {
    inner with
    Netsim.Queue_disc.name = "scripted";
    enqueue =
      (fun ~now ~size ~ecn pkt ->
        let seq = Packet.seq arena pkt in
        if
          Packet.kind arena pkt = Packet.Data
          && Hashtbl.mem remaining seq
          && not (Packet.retransmit arena pkt)
        then begin
          Hashtbl.remove remaining seq;
          Netsim.Queue_disc.Reject
        end
        else inner.Netsim.Queue_disc.enqueue ~now ~size ~ecn pkt);
  }

(* --- basic transfer ------------------------------------------------------------- *)

let transfer_completes () =
  (* buffer large enough that even the slow-start overshoot of a 500-packet
     transfer fits: this really is a lossless path *)
  let fx = fixture ~disc:(fun _ -> Netsim.Droptail.create ~limit_pkts:1000) () in
  let done_at = ref None in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:500
      ~on_complete:(fun _ -> done_at := Some (Sim.now fx.sim))
      ()
  in
  Sim.run ~until:(ts 30.0) fx.sim;
  check_bool "completed" true (Flow.completed flow);
  check_bool "completion time recorded" true (!done_at <> None);
  check_int "exactly 500 acked" 500 (Flow.acked_pkts flow);
  check_int "no retransmissions on a clean path" 0 (Flow.retransmissions flow);
  check_int "no timeouts" 0 (Flow.timeouts flow)

let slow_start_doubles () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  (* After ~3 RTTs (RTT ~ 24 ms) of slow start from cwnd=2 the window
     must have grown substantially and exponentially. *)
  Sim.run ~until:(ts 0.1) fx.sim;
  check_bool "cwnd grew exponentially" true (Flow.cwnd flow >= 12.0);
  Flow.stop flow

let ack_clocked_utilisation () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  Sim.run ~until:(ts 20.0) fx.sim;
  let goodput = Units.Rate.to_bps (Flow.goodput_bps flow ~now:(Sim.now fx.sim)) in
  check_bool "long flow fills most of a 10 Mbps pipe" true (goodput > 8e6)

(* --- loss recovery ----------------------------------------------------------------- *)

let fast_retransmit_single_loss () =
  let fx = fixture ~disc:(fun a -> scripted_drop a [ 30 ]) () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:200 ()
  in
  Sim.run ~until:(ts 20.0) fx.sim;
  check_bool "completed" true (Flow.completed flow);
  check_int "one retransmission" 1 (Flow.retransmissions flow);
  check_int "recovered without timeout" 0 (Flow.timeouts flow);
  check_int "one loss event" 1 (Flow.loss_events flow)

let sack_burst_loss_recovery () =
  (* Five packets of one window lost at once: SACK recovery must refill
     all holes without an RTO. *)
  let fx = fixture ~disc:(fun a -> scripted_drop a [ 40; 42; 44; 46; 48 ]) () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:300 ()
  in
  Sim.run ~until:(ts 20.0) fx.sim;
  check_bool "completed" true (Flow.completed flow);
  check_int "exactly the five holes retransmitted" 5 (Flow.retransmissions flow);
  check_int "no timeout" 0 (Flow.timeouts flow)

let window_halves_on_loss () =
  let fx = fixture ~disc:(fun a -> scripted_drop a [ 60 ]) () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  let before = ref 0.0 in
  Test_support.ticker fx.sim ~start:(ts 0.001) (ts 0.001) (fun () ->
      if Flow.loss_events flow = 0 then before := Flow.cwnd flow);
  Sim.run ~until:(ts 3.0) fx.sim;
  check_bool "saw loss" true (Flow.loss_events flow >= 1);
  check_bool "ssthresh near half of pre-loss cwnd" true
    (Flow.ssthresh flow <= (!before /. 2.0) +. 2.0);
  Flow.stop flow

let timeout_on_blackout () =
  (* Drop a long consecutive range: not enough dupacks can come back, so
     the sender must fall back to RTO and still finish. *)
  let victims = List.init 60 (fun i -> 20 + i) in
  let fx = fixture ~disc:(fun a -> scripted_drop a victims) () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:150 ()
  in
  Sim.run ~until:(ts 60.0) fx.sim;
  check_bool "completed despite blackout" true (Flow.completed flow);
  check_bool "used a timeout" true (Flow.timeouts flow >= 1)

(* --- link outages ------------------------------------------------------------ *)

let blackout_backoff_and_recovery () =
  (* Take the bottleneck down for 20 s mid-transfer: the RTO must back off
     exponentially (a handful of timeouts, not one per min_rto), and the
     first post-recovery ACK must reset the backoff. *)
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  Sim.run ~until:(ts 0.5) fx.sim;
  let acked_before = Flow.acked_pkts flow in
  check_bool "warm before the outage" true (acked_before > 0);
  Link.set_up fx.bottleneck false;
  Sim.run ~until:(ts 20.5) fx.sim;
  let during = Flow.timeouts flow in
  check_bool "exponential backoff: a few timeouts, not ~100" true
    (during >= 3 && during <= 10);
  check_bool "rto grew under backoff" true (tf (Flow.rto_value flow) > 2.0);
  Link.set_up fx.bottleneck true;
  Sim.run ~until:(ts 45.0) fx.sim;
  check_bool "transfer resumed after recovery" true
    (Flow.acked_pkts flow > acked_before + 100);
  check_bool "backoff reset by the first post-recovery ACK" true
    (tf (Flow.rto_value flow) < 1.0);
  Flow.stop flow

let stop_cancels_pending_rto () =
  (* Unacked data over a dead link leaves an RTO armed; stopping the flow
     must cancel it so the timer never fires on a detached flow. *)
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  Sim.run ~until:(ts 0.5) fx.sim;
  Link.set_up fx.bottleneck false;
  Sim.run ~until:(ts 0.6) fx.sim;
  Flow.stop flow;
  let at_stop = Flow.timeouts flow in
  Sim.run ~until:(ts 30.0) fx.sim;
  check_int "no timeout fires after stop" at_stop (Flow.timeouts flow)

let receiver_reordering () =
  (* Drop + later holes force out-of-order arrival at the receiver; total
     delivered payload must still be exact (no duplication, no loss). *)
  let fx = fixture ~disc:(fun a -> scripted_drop a [ 10; 25; 26; 70 ]) () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:120 ()
  in
  Sim.run ~until:(ts 30.0) fx.sim;
  check_bool "completed" true (Flow.completed flow);
  check_int "acked exactly total" 120 (Flow.acked_pkts flow)

(* --- ECN ----------------------------------------------------------------------------- *)

let ecn_halves_without_retransmit () =
  let mk_red _ =
    let params =
      {
        Netsim.Red.wq = 0.02;
        min_th = 5.0;
        max_th = 15.0;
        max_p = Units.Prob.v 0.1;
        gentle = true;
        adaptive = false;
        ecn = true;
      }
    in
    Netsim.Red.disc
      (Netsim.Red.create ~rng:(Rng.create 13) ~params ~capacity_pps:1201.0
         ~limit_pkts:100)
  in
  let fx = fixture ~disc:mk_red () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ~ecn:true ()
  in
  (* Slow-start overshoot may push RED past its hard-drop region once;
     judge the steady state after a warm-up. *)
  Sim.run ~until:(ts 5.0) fx.sim;
  Link.reset_stats fx.bottleneck;
  let retx_after_warmup = Flow.retransmissions flow in
  Sim.run ~until:(ts 25.0) fx.sim;
  check_bool "link marked packets" true (Link.marks fx.bottleneck > 0);
  check_int "no steady-state drops (ECN absorbed congestion)" 0
    (Link.drops fx.bottleneck);
  check_int "no steady-state retransmissions" retx_after_warmup
    (Flow.retransmissions flow);
  check_bool "still utilises the pipe" true
    (Units.Rate.to_bps (Flow.goodput_bps flow ~now:(Sim.now fx.sim)) > 7e6)

(* --- fairness / CC variants ------------------------------------------------------------ *)

let two_reno_flows_fair () =
  let fx = fixture () in
  let mk () = Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) () in
  let f1 = mk () and f2 = mk () in
  Sim.run ~until:(ts 10.0) fx.sim;
  Flow.reset_stats f1;
  Flow.reset_stats f2;
  Sim.run ~until:(ts 40.0) fx.sim;
  let now = Sim.now fx.sim in
  let g1 = Units.Rate.to_bps (Flow.goodput_bps f1 ~now)
  and g2 = Units.Rate.to_bps (Flow.goodput_bps f2 ~now) in
  let jain = Sim_engine.Stats.jain_index [| g1; g2 |] in
  check_bool "two identical flows share fairly" true (jain > 0.95)

let vegas_keeps_queue_small () =
  let fx = fixture () in
  let flow = Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Vegas.create ()) () in
  Sim.run ~until:(ts 10.0) fx.sim;
  Link.reset_stats fx.bottleneck;
  Sim.run ~until:(ts 30.0) fx.sim;
  check_bool "queue a few packets (alpha..beta)" true
    (Units.Pkts.to_float (Link.avg_queue_pkts fx.bottleneck) < 8.0);
  check_int "no drops" 0 (Link.drops fx.bottleneck);
  check_bool "high goodput" true
    (Units.Rate.to_bps (Flow.goodput_bps flow ~now:(Sim.now fx.sim)) > 8e6)

let pert_beats_reno_on_queue () =
  let run mk_cc =
    let fx = fixture () in
    let flow = Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(mk_cc fx.sim) () in
    Sim.run ~until:(ts 10.0) fx.sim;
    Link.reset_stats fx.bottleneck;
    Sim.run ~until:(ts 40.0) fx.sim;
    ( Units.Pkts.to_float (Link.avg_queue_pkts fx.bottleneck),
      Link.drops fx.bottleneck,
      flow )
  in
  let q_reno, drops_reno, _ = run (fun _ -> Cc.newreno ()) in
  let q_pert, drops_pert, pert_flow =
    run (fun sim -> Pert_cc.create ~rng:(Rng.split (Sim.rng sim)) ())
  in
  check_bool "PERT queue smaller than Reno" true (q_pert < q_reno /. 2.0);
  check_bool "PERT drops fewer" true (drops_pert <= drops_reno);
  check_bool "PERT did respond early" true (Flow.early_responses pert_flow > 0)

let pert_pi_regulates_delay () =
  let fx = fixture () in
  let gains =
    let g =
      Fluid.Stability.pert_pi_gains ~c:1201.0 ~n_min:1.0 ~r_plus:0.05
        ~r_star:0.024
    in
    Pert_core.Pert_pi.gains_of_pi ~k:g.Fluid.Stability.k ~m:g.Fluid.Stability.m
      ~delta:0.005
  in
  let cc =
    Pert_pi_cc.create
      ~rng:(Rng.split (Sim.rng fx.sim))
      ~gains ~target_delay:(ts 0.003) ~sample_interval:(ts 0.005) ()
  in
  let flow = Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc () in
  Sim.run ~until:(ts 10.0) fx.sim;
  Link.reset_stats fx.bottleneck;
  Sim.run ~until:(ts 40.0) fx.sim;
  (* 3 ms at 1201 pkt/s is ~3.6 packets; allow generous slack. *)
  check_bool "queue regulated near target" true
    (Units.Pkts.to_float (Link.avg_queue_pkts fx.bottleneck) < 15.0);
  check_int "no drops" 0 (Link.drops fx.bottleneck);
  check_bool "early responses happened" true (Flow.early_responses flow > 0)

let flow_stop_detaches () =
  let fx = fixture () in
  let flow = Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) () in
  Sim.run ~until:(ts 1.0) fx.sim;
  let acked = Flow.acked_pkts flow in
  Flow.stop flow;
  Sim.run ~until:(ts 5.0) fx.sim;
  (* a few in-flight ACKs may still drain, but no new data is sent *)
  check_bool "transmission halted" true (Flow.snd_next flow - acked < 200);
  check_bool "no further progress" true (Flow.acked_pkts flow <= acked + 200)

let owd_signal_ignores_reverse_congestion () =
  (* Saturate the reverse path with CBR: the RTT inflates, the forward
     one-way delay does not. An OWD PERT flow must keep early responses
     rare; an RTT PERT flow responds constantly. *)
  let run signal =
    (* Like [fixture] but with a realistically sized reverse bottleneck
       buffer (otherwise reverse queueing grows unboundedly). *)
    let sim = Sim.create ~seed:11 () in
    let topo = T.create sim in
    let src = T.add_node topo
    and r1 = T.add_node topo
    and r2 = T.add_node topo
    and dst = T.add_node topo in
    let fast () = Netsim.Droptail.create ~limit_pkts:10_000 in
    ignore
      (T.add_duplex topo ~a:src ~b:r1 ~bandwidth:(Units.Rate.bps 100e6) ~delay:(ts 0.001)
         ~disc_ab:(fast ()) ~disc_ba:(fast ()));
    ignore
      (T.add_link topo ~src:r1 ~dst:r2 ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01)
         ~disc:(Netsim.Droptail.create ~limit_pkts:100));
    ignore
      (T.add_link topo ~src:r2 ~dst:r1 ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01)
         ~disc:(Netsim.Droptail.create ~limit_pkts:100));
    ignore
      (T.add_duplex topo ~a:r2 ~b:dst ~bandwidth:(Units.Rate.bps 100e6) ~delay:(ts 0.001)
         ~disc_ab:(fast ()) ~disc_ba:(fast ()));
    T.compute_routes topo;
    let flow =
      Flow.create topo ~src ~dst
        ~cc:(Pert_cc.create ~rng:(Rng.split (Sim.rng sim)) ())
        ~delay_signal:signal ()
    in
    (* two reverse TCP flows keep the reverse queue loaded without
       starving the ACK path outright *)
    let _rev1 = Flow.create topo ~src:dst ~dst:src ~cc:(Cc.newreno ()) () in
    let _rev2 = Flow.create topo ~src:dst ~dst:src ~cc:(Cc.newreno ()) () in
    Sim.run ~until:(ts 20.0) sim;
    ( Flow.early_responses flow,
      Units.Rate.to_bps (Flow.goodput_bps flow ~now:(Sim.now sim)) )
  in
  let early_rtt, goodput_rtt = run `Rtt in
  let early_owd, goodput_owd = run `Owd in
  check_bool "rtt signal reacts to reverse congestion" true (early_rtt > 100);
  check_bool "owd signal reacts far less" true (early_owd * 3 < early_rtt);
  check_bool "owd keeps more forward goodput" true
    (goodput_owd > 2.0 *. goodput_rtt)

let delayed_acks_halve_ack_traffic () =
  (* Delayed ACKs must still deliver everything with no spurious
     retransmissions, while putting roughly half as many ACKs on the
     wire (counted at the reverse direction of the bottleneck). *)
  let run delayed =
    (* deep buffer: the 400-packet slow-start overshoot must fit, so any
       retransmission would be a receiver-side bug *)
    let fx = fixture ~disc:(fun _ -> Netsim.Droptail.create ~limit_pkts:1000) () in
    let flow =
      Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
        ~total_pkts:400 ~delayed_acks:delayed ()
    in
    let rev_link =
      List.find
        (fun l -> Netsim.Link.name l = "link-2->1")
        (Netsim.Topology.links fx.topo)
    in
    Sim.run ~until:(ts 60.0) fx.sim;
    check_bool "completed" true (Flow.completed flow);
    check_int "all data acked" 400 (Flow.acked_pkts flow);
    check_int "no spurious retransmissions" 0 (Flow.retransmissions flow);
    Netsim.Link.arrivals rev_link
  in
  let acks_immediate = run false in
  let acks_delayed = run true in
  check_bool "roughly half the ACKs" true
    (acks_delayed * 3 < acks_immediate * 2);
  check_bool "at least a third" true (acks_delayed * 3 >= acks_immediate)

let survives_reordering_jitter () =
  (* A jittery bottleneck reorders packets; the connection must still
     deliver everything (spurious fast retransmits are permitted — that
     is what reordering does to 3-dupack TCP — but no deadlock). *)
  let sim = Sim.create ~seed:5 () in
  let topo = T.create sim in
  let src = T.add_node topo and dst = T.add_node topo in
  let disc () = Netsim.Droptail.create ~limit_pkts:1000 in
  ignore
    (T.add_link topo ~jitter:(ts 0.005) ~src ~dst ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01)
       ~disc:(disc ()));
  ignore
    (T.add_link topo ~src:dst ~dst:src ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01)
       ~disc:(disc ()));
  T.compute_routes topo;
  let completed = ref false in
  let flow =
    Flow.create topo ~src ~dst ~cc:(Cc.newreno ()) ~total_pkts:500
      ~on_complete:(fun _ -> completed := true)
      ()
  in
  Sim.run ~until:(ts 60.0) sim;
  check_bool "completed despite reordering" true !completed;
  check_int "all data acked exactly once" 500 (Flow.acked_pkts flow)

let max_cwnd_cap_enforced () =
  let fx = fixture ~disc:(fun _ -> Netsim.Droptail.create ~limit_pkts:1000) () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ~max_cwnd:8.0 ()
  in
  Sim.run ~until:(ts 10.0) fx.sim;
  (* cwnd may grow above the cap internally but in-flight must respect it *)
  check_bool "outstanding bounded by cap" true
    (Flow.snd_next flow - Flow.snd_una flow <= 8);
  let goodput = Units.Rate.to_bps (Flow.goodput_bps flow ~now:(Sim.now fx.sim)) in
  (* 8 pkts per 24 ms RTT = ~2.7 Mbps of MSS payload *)
  check_bool "rate matches window cap" true (goodput < 3.3e6);
  Flow.stop flow

let completion_callback_fires_once () =
  let fx = fixture () in
  let fired = ref 0 in
  let _flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:50
      ~on_complete:(fun _ -> incr fired)
      ()
  in
  Sim.run ~until:(ts 20.0) fx.sim;
  check_int "exactly one completion" 1 !fired

let non_ecn_flow_ignores_echo () =
  (* A non-ECN flow over a marking RED queue: CE marks happen at the
     queue, but the sender (ecn = false) never reacts to echoes, so its
     early_responses stay 0 and it behaves like plain NewReno. *)
  let mk_red _ =
    let params =
      { Netsim.Red.wq = 0.02; min_th = 5.0; max_th = 15.0; max_p = Units.Prob.v 0.1;
        gentle = true; adaptive = false; ecn = true }
    in
    Netsim.Red.disc
      (Netsim.Red.create ~rng:(Rng.create 13) ~params ~capacity_pps:1201.0
         ~limit_pkts:100)
  in
  let fx = fixture ~disc:mk_red () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ~ecn:false ()
  in
  Sim.run ~until:(ts 10.0) fx.sim;
  (* RED marks only ECN-capable packets; non-capable ones get dropped in
     the marking region instead, so the flow sees losses not echoes *)
  check_int "no marks for non-ecn traffic" 0 (Netsim.Link.marks fx.bottleneck);
  check_bool "drops instead" true (Netsim.Link.drops fx.bottleneck > 0);
  Flow.stop flow

let initial_cwnd_respected () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~initial_cwnd:4.0 ()
  in
  (* before any ACK returns (RTT ~24 ms), exactly 4 packets are out *)
  Sim.run ~until:(ts 0.01) fx.sim;
  check_int "initial window" 4 (Flow.snd_next flow);
  Flow.stop flow

let deterministic_replay () =
  let run () =
    let fx = fixture ~seed:99 () in
    let flow =
      Flow.create fx.topo ~src:fx.src ~dst:fx.dst
        ~cc:(Pert_cc.create ~rng:(Rng.split (Sim.rng fx.sim)) ())
        ()
    in
    Sim.run ~until:(ts 10.0) fx.sim;
    (Flow.acked_pkts flow, Flow.early_responses flow, Sim.events_executed fx.sim)
  in
  let a = run () and b = run () in
  check_bool "identical replay" true (a = b)

let reliable_delivery_under_random_loss =
  QCheck.Test.make ~name:"reliable delivery under arbitrary loss patterns"
    ~count:25
    QCheck.(list_of_size (Gen.int_range 0 30) (int_range 0 149))
    (fun victims ->
      let fx = fixture ~disc:(fun a -> scripted_drop a victims) () in
      let completed = ref false in
      let flow =
        Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
          ~total_pkts:150
          ~on_complete:(fun _ -> completed := true)
          ()
      in
      Sim.run ~until:(ts 120.0) fx.sim;
      !completed && Flow.acked_pkts flow = 150)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ reliable_delivery_under_random_loss ]

(* --- Scoreboard ------------------------------------------------------------------ *)

let scoreboard_counts_and_growth () =
  let sb = Scoreboard.create () in
  check_int "no storage before the first mark" 0 (Scoreboard.capacity sb);
  check_bool "first SACK is news" true (Scoreboard.mark_sacked sb 3);
  check_bool "a repeat is not" false (Scoreboard.mark_sacked sb 3);
  Scoreboard.mark_retx sb 1;
  Scoreboard.mark_retx sb 1;
  Scoreboard.mark_retx sb 3;
  let cap = Scoreboard.capacity sb in
  check_bool "allocated" true (cap > 0);
  check_bool "far mark is news" true (Scoreboard.mark_sacked sb (cap + 10));
  check_bool "grew to cover it" true (Scoreboard.capacity sb > cap + 10);
  check_bool "marks survive growth" true
    (Scoreboard.is_marked sb 1 && Scoreboard.is_marked sb 3);
  check_bool "retransmitted is not SACKed" true (Scoreboard.mark_sacked sb 1);
  check_bool "unmarked" false (Scoreboard.is_marked sb 2);
  check_int "sacked count" 3 (Scoreboard.sacked sb);
  check_int "retransmitted count" 2 (Scoreboard.retransmitted sb)

let scoreboard_wraps_after_advance () =
  let sb = Scoreboard.create () in
  ignore (Scoreboard.mark_sacked sb 0);
  let cap = Scoreboard.capacity sb in
  for s = 1 to cap - 1 do
    if s mod 2 = 0 then ignore (Scoreboard.mark_sacked sb s)
  done;
  (* Slide a full window, every even number SACKed, three times around
     the ring: the slots the base leaves behind are reused above it. *)
  for k = 1 to 3 * cap do
    check_int "advance drops what it passes"
      (if (k - 1) mod 2 = 0 then 1 else 0)
      (Scoreboard.advance sb k);
    let top = k + cap - 1 in
    if top mod 2 = 0 then
      check_bool "fresh at the top" true (Scoreboard.mark_sacked sb top)
  done;
  check_int "no growth" cap (Scoreboard.capacity sb);
  let base = 3 * cap in
  for s = base to base + cap - 1 do
    check_bool "window contents" (s mod 2 = 0) (Scoreboard.is_marked sb s)
  done;
  check_bool "below the base reads unmarked" false
    (Scoreboard.is_marked sb (base - 2));
  check_int "count" (cap / 2) (Scoreboard.sacked sb);
  check_int "a jump past the ring drops everything" (cap / 2)
    (Scoreboard.advance sb (base + (5 * cap)));
  check_int "empty" 0 (Scoreboard.sacked sb)

let scoreboard_clear_retx_and_clear () =
  let sb = Scoreboard.create () in
  List.iter (fun s -> ignore (Scoreboard.mark_sacked sb s)) [ 4; 5; 9 ];
  List.iter (Scoreboard.mark_retx sb) [ 2; 3; 5 ];
  Scoreboard.clear_retx sb;
  check_int "retransmitted marks gone" 0 (Scoreboard.retransmitted sb);
  check_int "SACK marks kept" 3 (Scoreboard.sacked sb);
  check_bool "5 still SACKed" true (Scoreboard.is_marked sb 5);
  check_bool "2 is a hole again" false (Scoreboard.is_marked sb 2);
  Scoreboard.mark_retx sb 2;
  check_int "advance counts only SACKed marks" 2 (Scoreboard.advance sb 6);
  check_int "retransmitted mark dropped" 0 (Scoreboard.retransmitted sb);
  Alcotest.check_raises "below the base"
    (Invalid_argument "Scoreboard: number below the base") (fun () ->
      ignore (Scoreboard.mark_sacked sb 5));
  Scoreboard.clear sb;
  check_int "cleared" 0 (Scoreboard.sacked sb);
  check_bool "9 forgotten" false (Scoreboard.is_marked sb 9);
  check_bool "news again" true (Scoreboard.mark_sacked sb 9)

(* --- scripted segment exchanges --------------------------------------------------

   The sender alone, driven by hand. Its data segments are recorded as
   they enter the first link and swallowed at the far end, so the only
   ACKs it ever sees are the ones a test injects through Node.receive.
   [ack] injects one and returns what the sender emitted in response, as
   (seq, retransmit) pairs in sending order. NewReno, no RTT samples (the
   injected ACKs echo no timestamp) and a 10-segment initial window, so
   every window is known in advance. *)

type script = {
  sc_sim : Sim.t;
  sc_arena : Packet.arena;
  sc_src : Netsim.Node.t;
  sc_flow : Flow.t;
  mutable sc_sent : (int * bool) list;  (* newest first *)
}

let script () =
  let sim = Sim.create ~seed:3 () in
  let topo = T.create sim in
  let src = T.add_node topo and dst = T.add_node topo in
  let a = T.arena topo in
  let fwd, _ =
    T.add_duplex topo ~a:src ~b:dst ~bandwidth:(Units.Rate.bps 1e9)
      ~delay:(ts 0.001)
      ~disc_ab:(Netsim.Droptail.create ~limit_pkts:10_000)
      ~disc_ba:(Netsim.Droptail.create ~limit_pkts:10_000)
  in
  T.compute_routes topo;
  let flow =
    Flow.create topo ~src ~dst ~cc:(Cc.newreno ()) ~initial_cwnd:10.0 ()
  in
  let sc = { sc_sim = sim; sc_arena = a; sc_src = src; sc_flow = flow; sc_sent = [] } in
  Link.set_event_hook fwd (fun ~now:_ ev p ->
      if ev = Link.Enqueue && Packet.kind a p = Packet.Data then
        sc.sc_sent <- (Packet.seq a p, Packet.retransmit a p) :: sc.sc_sent);
  Link.interpose_deliver fwd (fun _ p -> Packet.free a p);
  sc

let take_sent sc =
  let sent = List.rev sc.sc_sent in
  sc.sc_sent <- [];
  sent

let ack sc ~ack ~sack =
  let a = sc.sc_arena in
  let pkt =
    Packet.ack a ~flow:(Flow.id sc.sc_flow) ~src:(-1)
      ~dst:(Netsim.Node.id sc.sc_src) ~ack ~sack ~ecn_echo:false
      ~ts_echo:Float.nan ~window:65535 ~now:(Sim.now sc.sc_sim) ()
  in
  ignore (take_sent sc);
  Netsim.Node.receive sc.sc_src pkt;
  take_sent sc

let check_sent = Alcotest.(check (list (pair int bool)))

(* Run the script to just after the initial window went out. *)
let script_started () =
  let sc = script () in
  Sim.run ~until:(ts 0.01) sc.sc_sim;
  check_sent "initial window"
    (List.init 10 (fun i -> (i, false)))
    (take_sent sc);
  sc

(* Segments 0 and 1 are lost; 2..9 arrive and are SACKed one dupack at a
   time, each freeing a pipe slot for new data, until the third dupack
   enters recovery at half the window. *)
let script_in_recovery () =
  let sc = script_started () in
  check_sent "dupack 1 clocks out new data" [ (10, false) ]
    (ack sc ~ack:0 ~sack:[ (2, 3) ]);
  check_sent "dupack 2 clocks out new data" [ (11, false) ]
    (ack sc ~ack:0 ~sack:[ (2, 4) ]);
  check_sent "dupack 3 enters recovery, pipe 9 above cwnd 5" []
    (ack sc ~ack:0 ~sack:[ (2, 5) ]);
  check_float_eps 0.0 "cwnd halved" 5.0 (Flow.cwnd sc.sc_flow);
  check_int "pipe" 9 (Flow.pipe sc.sc_flow);
  sc

let sack_retransmits_lowest_lost_holes () =
  let sc = script_in_recovery () in
  (* SACKing 5..9 empties the pipe to 4. Holes are retransmitted from the
     bottom, each replacing its lost original in the pipe; 10 and 11 are
     not yet presumed lost (fewer than three SACKed above them), so the
     last slot goes to new data. *)
  check_sent "holes 0 and 1, then new data"
    [ (0, true); (1, true); (12, false) ]
    (ack sc ~ack:0 ~sack:[ (2, 10) ]);
  check_int "pipe back at cwnd" 5 (Flow.pipe sc.sc_flow);
  check_sent "a repeated SACK frees nothing" []
    (ack sc ~ack:0 ~sack:[ (2, 10) ]);
  check_int "retransmissions" 2 (Flow.retransmissions sc.sc_flow)

let sack_purge_keeps_pipe () =
  let sc = script_in_recovery () in
  ignore (ack sc ~ack:0 ~sack:[ (2, 10) ]);
  (* Partial ACK for the two retransmitted holes: 0 and 1 leave the pipe
     (5 -> 3), none of them was SACKed, so two new segments go out. *)
  check_sent "partial ACK" [ (13, false); (14, false) ]
    (ack sc ~ack:2 ~sack:[ (2, 10) ]);
  check_int "pipe after partial ACK" 5 (Flow.pipe sc.sc_flow);
  (* Full ACK through 11: of the ten segments it covers, the eight
     SACKed ones (2..9) already left the pipe, so only 10 and 11 leave
     it now (5 -> 3) and recovery ends at cwnd 5: two new segments. *)
  check_sent "full ACK" [ (15, false); (16, false) ]
    (ack sc ~ack:12 ~sack:[]);
  check_int "pipe equals outstanding" 5 (Flow.pipe sc.sc_flow);
  check_int "outstanding" 5
    (Flow.snd_next sc.sc_flow - Flow.snd_una sc.sc_flow);
  check_int "no timeout" 0 (Flow.timeouts sc.sc_flow)

let sack_scoreboard_reset_on_timeout () =
  let sc = script_started () in
  check_sent "dupack SACKing 2" [ (10, false) ]
    (ack sc ~ack:0 ~sack:[ (2, 3) ]);
  (* No further ACK: the 1 s initial RTO fires, the window collapses to
     one segment and the sender goes back to snd_una. *)
  Sim.run ~until:(ts 1.5) sc.sc_sim;
  check_int "one timeout" 1 (Flow.timeouts sc.sc_flow);
  check_sent "go-back-N from snd_una" [ (0, true) ] (take_sent sc);
  check_int "pipe after timeout" 1 (Flow.pipe sc.sc_flow);
  (* The timeout forgot every SACK: the same block is fresh news again
     and frees the one pipe slot, which the go-back-N sender fills with
     the next segment. *)
  check_sent "SACK after the timeout counts again" [ (1, true) ]
    (ack sc ~ack:0 ~sack:[ (2, 3) ]);
  check_int "pipe" 1 (Flow.pipe sc.sc_flow)

let suite =
  [
    ("rto initial/first sample", `Quick, rto_initial_and_first_sample);
    ("rto min clamp", `Quick, rto_min_clamp);
    ("rto backoff/reset", `Quick, rto_backoff_and_reset);
    ("rto validation", `Quick, rto_validation);
    ("rto rejects non-finite", `Quick, rto_rejects_non_finite);
    ("rto backoff caps at max", `Quick, rto_backoff_caps_at_max);
    ("blackout backoff + recovery", `Quick, blackout_backoff_and_recovery);
    ("stop cancels pending rto", `Quick, stop_cancels_pending_rto);
    ("reno increase rules", `Quick, reno_increase_rules);
    ("vegas increases when uncongested", `Quick, vegas_increases_when_uncongested);
    ("vegas decreases when backlogged", `Quick, vegas_decreases_when_backlogged);
    ("vegas holds in band", `Quick, vegas_holds_in_band);
    ("transfer completes exactly", `Quick, transfer_completes);
    ("slow start doubles", `Quick, slow_start_doubles);
    ("ack-clocked utilisation", `Quick, ack_clocked_utilisation);
    ("fast retransmit, single loss", `Quick, fast_retransmit_single_loss);
    ("sack burst-loss recovery", `Quick, sack_burst_loss_recovery);
    ("window halves on loss", `Quick, window_halves_on_loss);
    ("timeout on blackout", `Quick, timeout_on_blackout);
    ("receiver reordering", `Quick, receiver_reordering);
    ("ecn halves without retransmit", `Quick, ecn_halves_without_retransmit);
    ("two reno flows fair", `Quick, two_reno_flows_fair);
    ("vegas keeps queue small", `Quick, vegas_keeps_queue_small);
    ("pert beats reno on queue", `Quick, pert_beats_reno_on_queue);
    ("pert-pi regulates delay", `Quick, pert_pi_regulates_delay);
    ("owd ignores reverse congestion", `Quick, owd_signal_ignores_reverse_congestion);
    ("delayed acks", `Quick, delayed_acks_halve_ack_traffic);
    ("survives reordering jitter", `Quick, survives_reordering_jitter);
    ("max cwnd cap", `Quick, max_cwnd_cap_enforced);
    ("completion fires once", `Quick, completion_callback_fires_once);
    ("non-ecn ignores echo", `Quick, non_ecn_flow_ignores_echo);
    ("initial cwnd", `Quick, initial_cwnd_respected);
    ("flow stop detaches", `Quick, flow_stop_detaches);
    ("deterministic replay", `Quick, deterministic_replay);
    ("scoreboard counts and growth", `Quick, scoreboard_counts_and_growth);
    ("scoreboard wraps after advance", `Quick, scoreboard_wraps_after_advance);
    ("scoreboard clear_retx and clear", `Quick, scoreboard_clear_retx_and_clear);
    ("sack: lowest lost holes first", `Quick, sack_retransmits_lowest_lost_holes);
    ("sack: purge keeps pipe", `Quick, sack_purge_keeps_pipe);
    ("sack: scoreboard reset on timeout", `Quick, sack_scoreboard_reset_on_timeout);
  ]
  @ qsuite
