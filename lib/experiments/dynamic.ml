module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module Flow = Tcpstack.Flow

type config = {
  scheme : Schemes.t;
  bandwidth : float;
  rtt : float;
  cohort_size : int;
  n_cohorts : int;
  epoch : float;
  bin : float;
  seed : int;
}

let default scale scheme =
  {
    scheme;
    bandwidth = Scale.pick scale ~quick:10e6 ~default:40e6 ~full:100e6;
    rtt = 0.060;
    cohort_size = Scale.pick scale ~quick:4 ~default:8 ~full:25;
    n_cohorts = 4;
    epoch = Scale.pick scale ~quick:10.0 ~default:30.0 ~full:100.0;
    bin = Scale.pick scale ~quick:2.0 ~default:5.0 ~full:10.0;
    seed = 42;
  }

(* The config record is plain data, so its Marshal bytes are a stable
   fingerprint for store keys (same convention as [Dumbbell.cell_key]). *)
let scheme_key ~experiment ?point config =
  Store.key ~experiment
    ~scheme:(Schemes.name config.scheme)
    ~seed:config.seed ?point
    ~extra:(Digest.to_hex (Digest.string (Marshal.to_string config [])))
    ()

(* The staircase's scheduled state: cohorts of flows that join and
   leave at epoch boundaries. Join and leave events carry the cohort
   index in their int slot. *)
type staircase = {
  built : Dumbbell.built;
  ecn : bool;
  cohorts : Flow.t array array;
  endpoints : (Netsim.Node.t * Netsim.Node.t) array array;
      (* [endpoints.(k - 1)]: cohort [k]'s (src, dst) hosts *)
}

let join_ev =
  Event.define2 ~name:"dynamic.join" (fun st k ->
      st.cohorts.(k) <-
        Array.map
          (fun (src, dst) ->
            Flow.create st.built.Dumbbell.topo ~src ~dst
              ~cc:(st.built.Dumbbell.cc_factory ())
              ~ecn:st.ecn ())
          st.endpoints.(k - 1))

let leave_ev =
  Event.define2 ~name:"dynamic.leave" (fun st k ->
      Array.iter Flow.stop st.cohorts.(k))

(* Goodput binning: each row of a series counts the bits delivered to
   one receiver group, read as a cumulative counter at every bin
   boundary and differenced. A cohort is read through the staircase,
   because joining replaces its flows. *)
type counter =
  | Cohort of staircase * int
  | Flows of Flow.t array
  | Cbr of Traffic.Cbr.t

let acked_bits flows =
  Array.fold_left (fun a f -> a + Flow.acked_pkts f) 0 flows
  * 8 * Netsim.Packet.mss

let bits = function
  | Cohort (st, k) -> acked_bits st.cohorts.(k)
  | Flows flows -> acked_bits flows
  | Cbr cbr -> Traffic.Cbr.received cbr * 8 * Netsim.Packet.data_size

type bins = {
  sim : Sim.t;
  width : float;
  nbins : int;
  counters : counter array;
  last : int array;
  series : float array array;  (* row per counter, column per bin *)
  mutable idx : int;
}

(* One bin boundary every [width] seconds, re-armed until the simulation
   stops. *)
let bin_ev =
  Event.define_rec ~name:"dynamic.bin" (fun self b ->
      if b.idx < b.nbins then begin
        Array.iteri
          (fun r c ->
            let now = bits c in
            b.series.(r).(b.idx) <- float_of_int (now - b.last.(r)) /. b.width;
            b.last.(r) <- now)
          b.counters;
        b.idx <- b.idx + 1
      end;
      if not (Sim.stopped b.sim) then
        Sim.after b.sim (Units.Time.s b.width) (self b))

(* Arms the binning from [width] on and returns its series. *)
let start_bins sim ~width ~nbins counters =
  let rows = Array.length counters in
  let series = Array.make_matrix rows nbins 0.0 in
  let last = Array.make rows 0 in
  Sim.at sim (Units.Time.s width)
    (bin_ev { sim; width; nbins; counters; last; series; idx = 0 });
  series

let run ?max_events ?max_wall config =
  (* Total timeline: cohorts join at 0, e, 2e, ... then leave in arrival
     order at n*e, (n+1)*e, ...; simulation ends when one cohort is left
     for a final epoch, mirroring the paper's 0..700 s staircase. *)
  let dumbbell_cfg =
    Dumbbell.uniform_flows
      {
        Dumbbell.default with
        scheme = config.scheme;
        bandwidth = config.bandwidth;
        rtt = config.rtt;
        reverse_flows = 0;
        web_sessions = 0;
        duration = 1.0 (* unused: we drive the clock ourselves *);
        warmup = 0.0;
        start_window = (0.0, 0.0);
        seed = config.seed;
      }
      ~n:config.cohort_size
  in
  let built = Dumbbell.build dumbbell_cfg in
  let sim = Netsim.Topology.sim built.Dumbbell.topo in
  (match (max_events, max_wall) with
  | None, None -> ()
  | _ -> Sim.set_budget sim ?max_events ?max_wall ());
  let total_epochs = (2 * config.n_cohorts) - 1 in
  let horizon = float_of_int total_epochs *. config.epoch in
  let nbins = Units.Round.ceil (horizon /. config.bin) in
  let times = Array.init nbins (fun i -> float_of_int (i + 1) *. config.bin) in
  (* Cohort 0 is the flows Dumbbell.build created; later cohorts attach
     fresh hosts at join time (hosts are created up front so routes exist). *)
  let cohorts = Array.make config.n_cohorts [||] in
  cohorts.(0) <- Array.of_list built.Dumbbell.forward_flows;
  let endpoints =
    Array.init (config.n_cohorts - 1) (fun _ ->
        Array.init config.cohort_size (fun _ ->
            let attach router =
              let host = Netsim.Topology.add_node built.Dumbbell.topo in
              let disc () = Netsim.Droptail.create ~limit_pkts:10_000 in
              ignore
                (Netsim.Topology.add_duplex built.Dumbbell.topo ~a:host
                   ~b:router
                   ~bandwidth:(Units.Rate.bps (10.0 *. config.bandwidth))
                   ~delay:(Units.Time.s (config.rtt /. 6.0))
                   ~disc_ab:(disc ()) ~disc_ba:(disc ()));
              host
            in
            let r1, r2 = built.Dumbbell.routers in
            (attach r1, attach r2)))
  in
  Netsim.Topology.compute_routes built.Dumbbell.topo;
  let st =
    { built; ecn = Schemes.uses_ecn config.scheme; cohorts; endpoints }
  in
  for k = 1 to config.n_cohorts - 1 do
    Sim.at sim (Units.Time.s (float_of_int k *. config.epoch)) (join_ev st k)
  done;
  (* Departures: cohorts leave in arrival order. *)
  for k = 0 to config.n_cohorts - 2 do
    Sim.at sim
      (Units.Time.s (float_of_int (config.n_cohorts + k) *. config.epoch))
      (leave_ev st k)
  done;
  let series =
    start_bins sim ~width:config.bin ~nbins
      (Array.init config.n_cohorts (fun k -> Cohort (st, k)))
  in
  Sim.run ~until:(Units.Time.s horizon) sim;
  (times, series)

let fig12 ?(ctx = Runner.default) scale =
  let n_cohorts = 4 in
  (* One staircase scenario per scheme, each on its own simulator. *)
  let cells =
    Runner.map ctx
      ~key:(fun scheme -> scheme_key ~experiment:"fig12" (default scale scheme))
      (* [run] builds its own scenario and takes no checkpoint policy,
         so these cells never honour a live checkpoint, although every
         event they schedule could be saved. *)
      (fun ~ckpt:_ scheme ->
        run ?max_events:ctx.Runner.max_events ?max_wall:ctx.Runner.deadline
          (default scale scheme))
      Schemes.all_fig4_schemes
  in
  let rows =
    List.concat
      (List.map2
         (fun scheme cell ->
           match cell with
           | Ok (times, series) ->
               Array.to_list
                 (Array.mapi
                    (fun i t ->
                      Schemes.name scheme
                      :: Output.cell_f ~digits:1 t
                      :: Array.to_list
                           (Array.map
                              (fun cohort ->
                                Output.cell_f ~digits:2 (cohort.(i) /. 1e6))
                              series))
                    times)
           | Error f ->
               [
                 Schemes.name scheme
                 :: Runner.failure_cells ~width:(1 + n_cohorts) f;
               ])
         Schemes.all_fig4_schemes cells)
  in
  {
    Output.title =
      "Fig 12: response to flow arrivals/departures (per-cohort Mbps)";
    header =
      "scheme" :: "t(s)"
      :: List.init n_cohorts (fun k -> Printf.sprintf "cohort%d" (k + 1));
    rows;
  }

let run_cbr ?max_events ?max_wall config ~cbr_share =
  let dumbbell_cfg =
    Dumbbell.uniform_flows
      {
        Dumbbell.default with
        Dumbbell.scheme = config.scheme;
        bandwidth = config.bandwidth;
        rtt = config.rtt;
        duration = 1.0;
        warmup = 0.0;
        start_window = (0.0, 1.0);
        seed = config.seed;
      }
      ~n:config.cohort_size
  in
  let built = Dumbbell.build dumbbell_cfg in
  let sim = Netsim.Topology.sim built.Dumbbell.topo in
  (match (max_events, max_wall) with
  | None, None -> ()
  | _ -> Sim.set_budget sim ?max_events ?max_wall ());
  let horizon = 3.0 *. config.epoch in
  let nbins = Units.Round.ceil (horizon /. config.bin) in
  let times = Array.init nbins (fun i -> float_of_int (i + 1) *. config.bin) in
  let r1, r2 = built.Dumbbell.routers in
  (* CBR endpoints on their own access links. *)
  let attach router =
    let host = Netsim.Topology.add_node built.Dumbbell.topo in
    let disc () = Netsim.Droptail.create ~limit_pkts:10_000 in
    ignore
      (Netsim.Topology.add_duplex built.Dumbbell.topo ~a:host ~b:router
         ~bandwidth:(Units.Rate.bps (10.0 *. config.bandwidth))
         ~delay:(Units.Time.s (config.rtt /. 6.0))
         ~disc_ab:(disc ()) ~disc_ba:(disc ()));
    host
  in
  let cbr_src = attach r1 and cbr_dst = attach r2 in
  Netsim.Topology.compute_routes built.Dumbbell.topo;
  let cbr =
    Traffic.Cbr.start built.Dumbbell.topo ~src:cbr_src ~dst:cbr_dst
      ~rate:(Units.Rate.bps (cbr_share *. config.bandwidth))
      ~start:(Units.Time.s config.epoch)
      ~stop:(Units.Time.s (2.0 *. config.epoch)) ()
  in
  let series =
    start_bins sim ~width:config.bin ~nbins
      [| Flows (Array.of_list built.Dumbbell.forward_flows); Cbr cbr |]
  in
  Sim.run ~until:(Units.Time.s horizon) sim;
  (times, series.(0), series.(1))

let dynamic_cbr ?(ctx = Runner.default) scale =
  let cbr_share = 0.5 in
  let cells =
    Runner.map ctx
      ~key:(fun scheme ->
        scheme_key ~experiment:"dynamic-cbr"
          ~point:(Printf.sprintf "cbr%.2f" cbr_share)
          (default scale scheme))
      (fun ~ckpt:_ scheme ->
        run_cbr ?max_events:ctx.Runner.max_events
          ?max_wall:ctx.Runner.deadline (default scale scheme) ~cbr_share)
      Schemes.all_fig4_schemes
  in
  let rows =
    List.concat
      (List.map2
         (fun scheme cell ->
           match cell with
           | Ok (times, tcp, cbr) ->
               Array.to_list
                 (Array.mapi
                    (fun i t ->
                      [
                        Schemes.name scheme;
                        Output.cell_f ~digits:1 t;
                        Output.cell_f ~digits:2 (tcp.(i) /. 1e6);
                        Output.cell_f ~digits:2 (cbr.(i) /. 1e6);
                      ])
                    times)
           | Error f ->
               [ Schemes.name scheme :: Runner.failure_cells ~width:3 f ])
         Schemes.all_fig4_schemes cells)
  in
  {
    Output.title =
      "Section 4.7 companion: non-responsive CBR at 50% of the bottleneck, \
       on during the middle third";
    header = [ "scheme"; "t(s)"; "tcp(Mbps)"; "cbr(Mbps)" ];
    rows;
  }
