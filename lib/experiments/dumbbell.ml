module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Stats = Sim_engine.Stats
module T = Netsim.Topology
module Link = Netsim.Link
module Packet = Netsim.Packet
module Flow = Tcpstack.Flow

(* End-host TCP hardening knobs, applied to every long-lived flow. Plain
   data (Marshal-safe): it participates in the config digest, so cells
   with different TCP profiles never collide in the store. *)
type tcp_profile = {
  rst_validation : bool;  (** RFC 5961 RST handling *)
  persist : bool;  (** zero-window persist probing *)
  wscale : int option;  (** peer's window-scale offer; None = auto *)
  rcv_buffer_pkts : int option;  (** receive buffer; None = effectively unbounded *)
}

let default_tcp =
  { rst_validation = true; persist = true; wscale = None; rcv_buffer_pkts = None }

type config = {
  scheme : Schemes.t;
  bandwidth : float;
  rtt : float;
  flow_rtts : float list;
  reverse_flows : int;
  web_sessions : int;
  buffer_pkts : int option;
  duration : float;
  warmup : float;
  start_window : float * float;
  delay_signal : Tcpstack.Flow.delay_signal;
  fault : Netsim.Fault.spec option;
  adversary : Netsim.Fault.adversary option;
  tcp : tcp_profile;
  audit : bool;
  seed : int;
  scheduler : [ `Heap | `Wheel ];
}

let default =
  {
    scheme = Schemes.Pert;
    bandwidth = 50e6;
    rtt = 0.060;
    flow_rtts = List.init 16 (fun _ -> 0.060);
    reverse_flows = 0;
    web_sessions = 0;
    buffer_pkts = None;
    duration = 60.0;
    warmup = 20.0;
    start_window = (0.0, 5.0);
    delay_signal = `Rtt;
    fault = None;
    adversary = None;
    tcp = default_tcp;
    audit = true;
    seed = 42;
    scheduler = `Wheel;
  }

let uniform_flows config ~n =
  { config with flow_rtts = List.init n (fun _ -> config.rtt) }

let bdp_pkts ~bandwidth ~rtt =
  max 1
    (Units.Round.trunc
       (bandwidth *. rtt /. (8.0 *. float_of_int Packet.data_size)))

type built = {
  topo : T.t;
  bottleneck : Link.t;
  reverse_bneck : Link.t;
  forward_flows : Flow.t list;
  reverse : Flow.t list;
  config : config;
  cc_factory : unit -> Tcpstack.Cc.t;
  routers : Netsim.Node.t * Netsim.Node.t;
  fault : Netsim.Fault.t option;
  attack : Netsim.Fault.attack option;
  audit : Sim_engine.Audit.t option;
}

(* Access links are 10x the bottleneck and lightly buffered relative to
   it, so only the bottleneck queue matters — mirroring the paper's
   500 Mbps access links against a 100 Mbps core. *)
let access_bw config = 10.0 *. config.bandwidth
let access_buffer = 10_000

let buffer_size config =
  let nflows = List.length config.flow_rtts in
  match config.buffer_pkts with
  | Some b -> b
  | None ->
      max
        (bdp_pkts ~bandwidth:config.bandwidth ~rtt:config.rtt)
        (max 4 (2 * nflows))

let build config =
  let sim = Sim.create ~seed:config.seed ~scheduler:config.scheduler () in
  let topo = T.create sim in
  let r1 = T.add_node topo and r2 = T.add_node topo in
  let capacity_pps =
    config.bandwidth /. (8.0 *. float_of_int Packet.data_size)
  in
  let limit_pkts = buffer_size config in
  let nflows = List.length config.flow_rtts in
  let ctx =
    {
      Schemes.sim;
      capacity_pps;
      limit_pkts;
      rtt = config.rtt;
      nflows;
    }
  in
  (* The bottleneck one-way propagation takes a third of the smallest
     flow RTT; access links supply the rest per flow. *)
  let min_rtt =
    List.fold_left Float.min config.rtt config.flow_rtts
  in
  let bneck_delay = min_rtt /. 6.0 in
  let bottleneck =
    T.add_link topo ~src:r1 ~dst:r2
      ~bandwidth:(Units.Rate.bps config.bandwidth)
      ~delay:(Units.Time.s bneck_delay)
      ~disc:(Schemes.bottleneck_disc config.scheme ctx)
  in
  let reverse_bneck =
    T.add_link topo ~src:r2 ~dst:r1
      ~bandwidth:(Units.Rate.bps config.bandwidth)
      ~delay:(Units.Time.s bneck_delay)
      ~disc:(Schemes.bottleneck_disc config.scheme ctx)
  in
  (* Impairments apply to the forward bottleneck: that is the wire the
     delay signal crosses. Attach before any flow is built so the rng
     split order — and thus unimpaired runs — is unchanged when
     [config.fault] is [None]. *)
  let fault = Option.map (fun spec -> Netsim.Fault.attach spec bottleneck) config.fault in
  (* The adversary wiretaps both bottleneck directions and injects its
     forgeries upstream of the queues. Armed right after the fault layer
     (before any flow) for the same reason: [None] must leave the rng
     split order — and every existing seeded run — untouched. *)
  let attack =
    Option.map
      (fun adv -> Netsim.Fault.attack adv ~data:bottleneck ~ack:reverse_bneck)
      config.adversary
  in
  let attach_host router rtt_target =
    (* Each direction of the access pair contributes
       (rtt_target/2 - bneck_delay)/2 one-way delay. *)
    let d = Float.max 1e-5 (((rtt_target /. 2.0) -. bneck_delay) /. 2.0) in
    let host = T.add_node topo in
    let disc () = Netsim.Droptail.create ~limit_pkts:access_buffer in
    ignore
      (T.add_duplex topo ~a:host ~b:router
         ~bandwidth:(Units.Rate.bps (access_bw config))
         ~delay:(Units.Time.s d) ~disc_ab:(disc ()) ~disc_ba:(disc ()));
    host
  in
  let cc_factory = Schemes.cc_factory config.scheme ctx in
  let ecn = Schemes.uses_ecn config.scheme in
  let rng = Rng.split (Sim.rng sim) in
  let lo, hi = config.start_window in
  let mk_flow ~src ~dst =
    let start =
      Units.Time.s (if hi > lo then Rng.uniform rng lo hi else lo)
    in
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
  (* Forward long-lived flows with their individual RTTs. *)
  let endpoints =
    List.map
      (fun rtt -> (attach_host r1 rtt, attach_host r2 rtt))
      config.flow_rtts
  in
  (* Reverse flows load the ACK path, as in the paper's test cases. *)
  let rev_endpoints =
    List.init config.reverse_flows (fun _ ->
        (attach_host r2 config.rtt, attach_host r1 config.rtt))
  in
  (* Web hosts: a small pool on each side. *)
  let web_pool router =
    Array.init
      (min 8 (max 1 config.web_sessions))
      (fun _ -> attach_host router config.rtt)
  in
  let web_src = web_pool r1 and web_dst = web_pool r2 in
  T.compute_routes topo;
  let forward_flows = List.map (fun (s, d) -> mk_flow ~src:s ~dst:d) endpoints in
  let reverse = List.map (fun (s, d) -> mk_flow ~src:s ~dst:d) rev_endpoints in
  if config.web_sessions > 0 then
    ignore
      (Traffic.Web.start_sessions topo ~n:config.web_sessions ~src_pool:web_src
         ~dst_pool:web_dst ~cc_factory ~ecn ());
  let audit =
    if not config.audit then None
    else begin
      let a = Sim_engine.Audit.create ~interval:(Units.Time.s 0.1) sim in
      Sim_engine.Audit.enable_watchdog a;
      List.iter
        (fun l ->
          Sim_engine.Audit.add_check a ~subject:(Link.name l) (fun ~now:_ ->
              Link.conservation_error l))
        (T.links topo);
      List.iter
        (fun f ->
          let subject = Printf.sprintf "flow-%d" (Flow.id f) in
          Sim_engine.Audit.add_check a ~subject (fun ~now:_ ->
              Flow.audit_check f);
          (* Deadlock tripwire: an active flow whose progress counter
             pins for this long (≫ any RTO here, ≪ the run) has stalled
             — e.g. a zero-window state nobody is probing. Scaled with
             the duration so short smoke runs can still catch one. *)
          Sim_engine.Audit.add_stall_check a ~subject
            ~stall_after:(Units.Time.s (Float.min 5.0 (config.duration /. 4.0)))
            (fun () -> Flow.liveness f))
        (forward_flows @ reverse);
      Some a
    end
  in
  {
    topo;
    bottleneck;
    reverse_bneck;
    forward_flows;
    reverse;
    config;
    cc_factory;
    routers = (r1, r2);
    fault;
    attack;
    audit;
  }

let reset built =
  Link.reset_stats built.bottleneck;
  Link.reset_stats built.reverse_bneck;
  List.iter Flow.reset_stats built.forward_flows;
  List.iter Flow.reset_stats built.reverse

type result = {
  avg_queue_pkts : Units.Pkts.t;
  avg_queue_norm : float;
  drop_rate : float;
  utilization : float;
  jain : float;
  per_flow_goodput : Units.Rate.t array;
  buffer_pkts : int;
  marks : int;
  early_responses : int;
  loss_events : int;
  audit_violations : int;
}

let measure built =
  let sim = T.sim built.topo in
  let now = Sim.now sim in
  let link = built.bottleneck in
  let goodputs =
    built.forward_flows
    |> List.map (fun f -> Flow.goodput_bps f ~now)
    |> Array.of_list
  in
  let buffer = (Link.disc link).Netsim.Queue_disc.capacity_pkts in
  {
    avg_queue_pkts = Link.avg_queue_pkts link;
    avg_queue_norm =
      Units.Pkts.to_float (Link.avg_queue_pkts link) /. float_of_int buffer;
    drop_rate = Link.drop_rate link;
    utilization = Link.utilization link;
    jain = Stats.jain_index (Array.map Units.Rate.to_bps goodputs);
    per_flow_goodput = goodputs;
    buffer_pkts = buffer;
    marks = Link.marks link;
    early_responses =
      List.fold_left (fun a f -> a + Flow.early_responses f) 0
        built.forward_flows;
    loss_events =
      List.fold_left (fun a f -> a + Flow.loss_events f) 0 built.forward_flows;
    audit_violations =
      (match built.audit with
      | Some a -> Sim_engine.Audit.violation_count a
      | None -> 0);
  }

let arm_budget sim ?max_events ?max_wall () =
  match (max_events, max_wall) with
  | None, None -> ()
  | _ -> Sim.set_budget sim ?max_events ?max_wall ()

(* --- live checkpoints ---------------------------------------------------- *)

(* Everything [Sim.Snapshot.save] must carry besides the simulator: the
   built topology (whose links/flows/audit the restored process walks for
   rehydration and measurement) and which run phase we are in, so a
   restore mid-warmup still resets statistics at the warmup boundary
   exactly once. *)
type world = { w_built : built; mutable w_warmup_done : bool }

(* Self-rescheduling checkpoint tick. It re-arms BEFORE writing, so the
   pending next tick is part of the saved state and a restored run keeps
   checkpointing without re-installation. The tick reads only the event
   counter and the OS clock — never simulation-visible state — so runs
   with and without a checkpoint file produce byte-identical results
   given the same tick stream. *)
type ckpt_tick = {
  ck_world : world;
  ck_path : string;
  ck_period : float;  (* sim-time seconds between cadence checks *)
  ck_every_events : int;  (* max_int when only wall-gated *)
  ck_every_wall : float;  (* infinity when only event-gated *)
  mutable ck_last_events : int;
  mutable ck_last_wall : float;
}

let ckpt_tick_ev =
  Sim_engine.Event.define_rec ~name:"dumbbell.checkpoint" (fun self ck ->
      let sim = T.sim ck.ck_world.w_built.topo in
      if not (Sim.stopped sim) then
        Sim.after sim (Units.Time.s ck.ck_period) (self ck);
      let events = Sim.events_executed sim in
      let wall = (Unix.gettimeofday () [@lint.allow "D2"]) in
      if
        events - ck.ck_last_events >= ck.ck_every_events
        || wall -. ck.ck_last_wall >= ck.ck_every_wall
      then begin
        ck.ck_last_events <- events;
        ck.ck_last_wall <- wall;
        ignore (Sim.Snapshot.save sim ~world:ck.ck_world ~path:ck.ck_path)
      end)

let install_ckpt_tick (ckpt : Runner.checkpoint) world =
  let sim = T.sim world.w_built.topo in
  let period =
    (* Check the cadence a few hundred times per run: cheap (the check
       itself is two loads and a clock read) yet fine-grained enough
       that an event/wall cadence is honoured promptly. *)
    Float.max 1e-3 (world.w_built.config.duration /. 400.0)
  in
  let ck =
    {
      ck_world = world;
      ck_path = ckpt.Runner.snap_path;
      ck_period = period;
      ck_every_events =
        Option.value ckpt.Runner.snap_every_events ~default:max_int;
      ck_every_wall =
        (match ckpt.Runner.snap_every_wall with
        | Some w -> Units.Time.to_s w
        | None -> infinity);
      ck_last_events = Sim.events_executed sim;
      ck_last_wall = (Unix.gettimeofday () [@lint.allow "D2"]);
    }
  in
  Sim.after sim (Units.Time.s period) (ckpt_tick_ev ck)

(* Post-restore repair of every extension-constructor value in the world
   (they do not survive Marshal — see {!Schemes.rehydrate_disc}): the
   queue discipline of every link, and every long-lived flow's
   congestion-control engine. Web-session flows are reachable only
   through node agents and their think timers, and are not walked:
   their controllers keep working (the closures captured the engine
   directly), only their [engine_of] introspection would fail, and
   nothing introspects a web flow. *)
let rehydrate_world world =
  let built = world.w_built in
  List.iter
    (fun link -> Schemes.rehydrate_disc (Link.disc link))
    (T.links built.topo);
  List.iter
    (fun flow -> Schemes.rehydrate_cc (Flow.cc flow))
    (built.forward_flows @ built.reverse)

(* The two run phases, from whatever point [world] has reached: finish
   the warmup (resetting statistics at its boundary exactly once), then
   the measured interval. A budget cut ({!Sim.Budget_exceeded}) raises
   out of either [Sim.run] with the simulation in a consistent
   just-between-events state — which is precisely what a pending
   checkpoint tick has saved most recently. *)
let finish_phases world =
  let built = world.w_built in
  let sim = T.sim built.topo in
  if not world.w_warmup_done then begin
    Sim.run ~until:(Units.Time.s built.config.warmup) sim;
    reset built;
    world.w_warmup_done <- true
  end;
  Sim.run ~until:(Units.Time.s built.config.duration) sim;
  measure built

let run_phases built = finish_phases { w_built = built; w_warmup_done = false }

let run_world ?ckpt ?max_events ?max_wall config =
  let fresh () =
    let world = { w_built = build config; w_warmup_done = false } in
    let sim = T.sim world.w_built.topo in
    arm_budget sim ?max_events ?max_wall ();
    Option.iter (fun c -> install_ckpt_tick c world) ckpt;
    world
  in
  let world =
    match ckpt with
    | Some { Runner.snap_path; _ } when Sys.file_exists snap_path -> (
        match Sim.Snapshot.load ~path:snap_path with
        | _sim, (world : world) ->
            (* The snapshot carries the armed budget and the pending
               checkpoint tick; re-arming either would double-charge. *)
            rehydrate_world world;
            world
        | exception Sim.Snapshot.Incompatible _ ->
            (* Stale binary or torn file: recompute from scratch (the
               next cadence hit overwrites the unusable snapshot). *)
            fresh ())
    | _ -> fresh ()
  in
  (world.w_built, finish_phases world)

let run ?ckpt ?max_events ?max_wall config =
  snd (run_world ?ckpt ?max_events ?max_wall config)

(* Each config builds its own Sim.t, so the runs share nothing (pertlint
   D1–D3) and can execute on separate domains. Results come back in
   config order: output is bit-identical for every [jobs]. *)

(* The config record is plain data (no closures), so its Marshal bytes
   are a stable fingerprint: two cells agree on the digest iff they are
   the same simulation. *)
let config_digest config = Digest.to_hex (Digest.string (Marshal.to_string config []))

let cell_key ~experiment (point, config) =
  Store.key ~experiment
    ~scheme:(Schemes.name config.scheme)
    ~seed:config.seed ~point
    ~extra:(config_digest config)
    ()

let run_cells_with ~ctx ~experiment ~summary cells =
  (* The context's scheduler choice overrides the configs up front, so
     the store key digests the scheduler that actually ran. *)
  let cells =
    List.map
      (fun (point, config) ->
        (point, { config with scheduler = ctx.Runner.scheduler }))
      cells
  in
  Runner.map ctx
    ~key:(cell_key ~experiment)
    (fun ~ckpt (_, config) ->
      let built, result =
        run_world ?ckpt ?max_events:ctx.Runner.max_events
          ?max_wall:ctx.Runner.deadline config
      in
      summary built result)
    cells

let run_cells ~ctx ~experiment cells =
  run_cells_with ~ctx ~experiment ~summary:(fun _ r -> r) cells
