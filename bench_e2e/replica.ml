(* Instrumented replica of [Experiments.Dumbbell.build], for the traced
   run.

   It builds the same scenario from public constructors only, in the
   same order (so every rng split, node id and flow id matches), and
   wraps each layer boundary in a ledger span:

   - the bottleneck and access queue disciplines' enqueue/dequeue;
   - every link's delivery callback, split by the receiving node: a
     router forwards ([net.forward]), a host runs its TCP endpoint
     ([tcp.deliver]);
   - the congestion controllers' on_ack/early/on_loss, through a wrapped
     controller factory that also counts flows;
   - the audit checks.

   The spans only read the clock, so the traced run must reproduce
   [Dumbbell.run] byte for byte; fidelity.ml checks that, and every
   traced benchmark run checks it again against its untraced twin. *)

module D = Experiments.Dumbbell
module S = Experiments.Schemes
module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Audit = Sim_engine.Audit
module T = Netsim.Topology
module Link = Netsim.Link
module Q = Netsim.Queue_disc
module Packet = Netsim.Packet
module Flow = Tcpstack.Flow
module Cc = Tcpstack.Cc

type counters = {
  mutable flows : int;  (** controllers handed out: long + web flows *)
  mutable early_reduce : int;  (** early-hook calls that returned [Reduce] *)
}

type t = {
  built : D.built;
  ledger : Ledger.t;
  run_span : int;
  counters : counters;
}

(* Only Queue_disc.Empty can leave a wrapped closure in a run that
   succeeds (the link probes an empty queue with it); any other
   exception fails the run, so the other wrappers do not unwind. *)
let wrap_disc ledger ~enq ~deq (d : Q.t) =
  {
    d with
    Q.enqueue =
      (fun ~now ~size ~ecn p ->
        Ledger.enter ledger enq;
        let v = d.Q.enqueue ~now ~size ~ecn p in
        Ledger.leave ledger;
        v);
    dequeue =
      (fun ~now ->
        Ledger.enter ledger deq;
        match d.Q.dequeue ~now with
        | p ->
            Ledger.leave ledger;
            p
        | exception e ->
            Ledger.leave ledger;
            raise e);
  }

let wrap_cc ledger counters ~on_ack ~early ~on_loss (cc : Cc.t) =
  {
    cc with
    Cc.on_ack =
      (fun w ~newly_acked ~rtt ~now ->
        Ledger.enter ledger on_ack;
        cc.Cc.on_ack w ~newly_acked ~rtt ~now;
        Ledger.leave ledger);
    early =
      (fun w ~rtt ~now ->
        Ledger.enter ledger early;
        let a = cc.Cc.early w ~rtt ~now in
        (match a with
        | Cc.Reduce _ -> counters.early_reduce <- counters.early_reduce + 1
        | Cc.No_response -> ());
        Ledger.leave ledger;
        a);
    on_loss =
      (fun ~now ->
        Ledger.enter ledger on_loss;
        cc.Cc.on_loss ~now;
        Ledger.leave ledger);
  }

let span_deliver ledger id link =
  Link.interpose_deliver link (fun inner p ->
      Ledger.enter ledger id;
      inner p;
      Ledger.leave ledger)

(* Mirrors Dumbbell's private constants. *)
let access_bw (config : D.config) = 10.0 *. config.bandwidth
let access_buffer = 10_000

let build (config : D.config) =
  if Option.is_some config.fault || Option.is_some config.adversary then
    invalid_arg "Replica.build: faults and adversaries are not replicated";
  let ledger = Ledger.create () in
  let sp = Ledger.span ledger in
  let run_span = sp "engine.run" in
  let bneck_enq = sp "net.bneck.enqueue"
  and bneck_deq = sp "net.bneck.dequeue" in
  let access_enq = sp "net.access.enqueue"
  and access_deq = sp "net.access.dequeue" in
  let forward = sp "net.forward" and deliver = sp "tcp.deliver" in
  let on_ack = sp "cc.on_ack" and early = sp "cc.early" in
  let on_loss = sp "cc.on_loss" and audit_span = sp "engine.audit" in
  let counters = { flows = 0; early_reduce = 0 } in
  let sim = Sim.create ~seed:config.seed ~scheduler:config.scheduler () in
  let topo = T.create sim in
  let r1 = T.add_node topo and r2 = T.add_node topo in
  let capacity_pps =
    config.bandwidth /. (8.0 *. float_of_int Packet.data_size)
  in
  let nflows = List.length config.flow_rtts in
  let limit_pkts =
    match config.buffer_pkts with
    | Some b -> b
    | None ->
        max
          (D.bdp_pkts ~bandwidth:config.bandwidth ~rtt:config.rtt)
          (max 4 (2 * nflows))
  in
  let ctx = { S.sim; capacity_pps; limit_pkts; rtt = config.rtt; nflows } in
  let min_rtt = List.fold_left Float.min config.rtt config.flow_rtts in
  let bneck_delay = min_rtt /. 6.0 in
  let bneck_link ~src ~dst =
    let l =
      T.add_link topo ~src ~dst
        ~bandwidth:(Units.Rate.bps config.bandwidth)
        ~delay:(Units.Time.s bneck_delay)
        ~disc:
          (wrap_disc ledger ~enq:bneck_enq ~deq:bneck_deq
             (S.bottleneck_disc config.scheme ctx))
    in
    span_deliver ledger forward l;
    l
  in
  let bottleneck = bneck_link ~src:r1 ~dst:r2 in
  let reverse_bneck = bneck_link ~src:r2 ~dst:r1 in
  let attach_host router rtt_target =
    let d = Float.max 1e-5 (((rtt_target /. 2.0) -. bneck_delay) /. 2.0) in
    let host = T.add_node topo in
    let disc () =
      wrap_disc ledger ~enq:access_enq ~deq:access_deq
        (Netsim.Droptail.create ~limit_pkts:access_buffer)
    in
    let up, down =
      T.add_duplex topo ~a:host ~b:router
        ~bandwidth:(Units.Rate.bps (access_bw config))
        ~delay:(Units.Time.s d) ~disc_ab:(disc ()) ~disc_ba:(disc ())
    in
    span_deliver ledger forward up;
    span_deliver ledger deliver down;
    host
  in
  let base_factory = S.cc_factory config.scheme ctx in
  let cc_factory () =
    counters.flows <- counters.flows + 1;
    wrap_cc ledger counters ~on_ack ~early ~on_loss (base_factory ())
  in
  let ecn = S.uses_ecn config.scheme in
  let rng = Rng.split (Sim.rng sim) in
  let lo, hi = config.start_window in
  let mk_flow ~src ~dst =
    let start = Units.Time.s (if hi > lo then Rng.uniform rng lo hi else lo) in
    let tcp = config.tcp in
    let rcv_buffer =
      Option.map
        (fun pkts -> Units.Size.bytes (pkts * Packet.mss))
        tcp.rcv_buffer_pkts
    in
    Flow.create topo ~src ~dst ~cc:(cc_factory ()) ~ecn ~start
      ~delay_signal:config.delay_signal ?rcv_buffer ?wscale:tcp.wscale
      ~persist:tcp.persist ~rst_validation:tcp.rst_validation ()
  in
  let endpoints =
    List.map
      (fun rtt -> (attach_host r1 rtt, attach_host r2 rtt))
      config.flow_rtts
  in
  let rev_endpoints =
    List.init config.reverse_flows (fun _ ->
        (attach_host r2 config.rtt, attach_host r1 config.rtt))
  in
  let web_pool router =
    Array.init
      (min 8 (max 1 config.web_sessions))
      (fun _ -> attach_host router config.rtt)
  in
  let web_src = web_pool r1 and web_dst = web_pool r2 in
  T.compute_routes topo;
  let forward_flows =
    List.map (fun (s, d) -> mk_flow ~src:s ~dst:d) endpoints
  in
  let reverse = List.map (fun (s, d) -> mk_flow ~src:s ~dst:d) rev_endpoints in
  if config.web_sessions > 0 then
    ignore
      (Traffic.Web.start_sessions topo ~n:config.web_sessions ~src_pool:web_src
         ~dst_pool:web_dst ~cc_factory ~ecn ());
  let audit =
    if not config.audit then None
    else begin
      let a = Audit.create ~interval:(Units.Time.s 0.1) sim in
      Audit.enable_watchdog a;
      let timed check ~now =
        Ledger.enter ledger audit_span;
        let r = check ~now in
        Ledger.leave ledger;
        r
      in
      List.iter
        (fun l ->
          Audit.add_check a ~subject:(Link.name l)
            (timed (fun ~now:_ -> Link.conservation_error l)))
        (T.links topo);
      List.iter
        (fun f ->
          let subject = Printf.sprintf "flow-%d" (Flow.id f) in
          Audit.add_check a ~subject (timed (fun ~now:_ -> Flow.audit_check f));
          Audit.add_stall_check a ~subject
            ~stall_after:(Units.Time.s (Float.min 5.0 (config.duration /. 4.0)))
            (fun () ->
              Ledger.enter ledger audit_span;
              let r = Flow.liveness f in
              Ledger.leave ledger;
              r))
        (forward_flows @ reverse);
      Some a
    end
  in
  let built =
    {
      D.topo;
      bottleneck;
      reverse_bneck;
      forward_flows;
      reverse;
      config;
      cc_factory;
      routers = (r1, r2);
      fault = None;
      attack = None;
      audit;
    }
  in
  { built; ledger; run_span; counters }

let sim_run t until =
  Ledger.enter t.ledger t.run_span;
  Sim.run ~until:(Units.Time.s until) (T.sim t.built.D.topo);
  Ledger.leave t.ledger

let link_arrivals t =
  List.fold_left (fun a l -> a + Link.arrivals l) 0 (T.links t.built.D.topo)

type window = { events : int; arrivals : int }
(** Scheduler events and link arrivals (all links) over the measured
    interval. *)

(* Dumbbell.run's two phases: warm up, reset the measurement windows,
   measure. *)
let run t =
  let sim = T.sim t.built.D.topo in
  sim_run t t.built.D.config.warmup;
  let e0 = Sim.events_executed sim in
  D.reset t.built;
  let a0 = link_arrivals t in
  sim_run t t.built.D.config.duration;
  let window =
    { events = Sim.events_executed sim - e0; arrivals = link_arrivals t - a0 }
  in
  (D.measure t.built, window)
