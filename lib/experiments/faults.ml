(* The fault suite: how gracefully does PERT degrade when the network
   misbehaves in ways its delay signal cannot anticipate?

   Section 7 of the paper argues PERT's early response is safe because it
   never responds to less information than SACK does — losses still
   trigger the standard response. The suite stresses that claim on three
   impaired bottlenecks: random non-congestive loss (wireless-style),
   link flapping with recovery, and ECN-bleaching middleboxes. The bar is
   graceful degradation: PERT must keep >= plain SACK's goodput when the
   signal is polluted, and every run must pass the invariant audit. *)

module Sim = Sim_engine.Sim
module Audit = Sim_engine.Audit
module T = Netsim.Topology
module Fault = Netsim.Fault
module Link = Netsim.Link
module Flow = Tcpstack.Flow
module D = Dumbbell

let schemes = [ Schemes.Pert; Schemes.Sack_droptail; Schemes.Pert_ecn ]

let base scale =
  let bandwidth =
    Scale.pick scale ~smoke:5e6 ~quick:10e6 ~default:40e6 ~full:100e6
  in
  let nflows = Scale.pick scale ~smoke:4 ~quick:6 ~default:16 ~full:40 in
  let duration =
    Scale.pick scale ~smoke:8.0 ~quick:30.0 ~default:60.0 ~full:240.0
  in
  D.uniform_flows
    {
      D.default with
      D.bandwidth;
      duration;
      warmup = duration /. 4.0;
      seed = 11;
    }
    ~n:nflows

(* Per-run summary beyond Dumbbell.result: aggregate goodput, flow-level
   timeout counts and the fault layer's own accounting. *)
type run = {
  result : D.result;
  goodput_bps : Units.Rate.t;
  timeouts : int;
  fstats : Fault.stats option;
}

let summary built result =
  {
    result;
    goodput_bps =
      Units.Rate.bps
        (Array.fold_left
           (fun a r -> a +. Units.Rate.to_bps r)
           0.0 result.D.per_flow_goodput);
    timeouts =
      List.fold_left (fun a f -> a + Flow.timeouts f) 0 built.D.forward_flows;
    fstats = Option.map Fault.stats built.D.fault;
  }

let mbps v = Output.cell_f ~digits:2 (Units.Rate.to_mbps v)

let fstat f get = match f.fstats with Some s -> get s | None -> 0

let run_cells ~ctx ~experiment specs =
  D.run_cells_with ~ctx ~experiment ~summary specs

(* --- non-congestive loss ------------------------------------------------- *)

let loss_rates scale =
  Scale.pick scale ~smoke:[ 0.01 ] ~quick:[ 0.01 ]
    ~default:[ 0.001; 0.01; 0.05 ]
    ~full:[ 0.001; 0.005; 0.01; 0.02; 0.05 ]

let lossy ?(ctx = Runner.default) scale =
  let config = base scale in
  let cells =
    List.concat_map
      (fun p -> List.map (fun scheme -> (p, scheme)) schemes)
      (loss_rates scale)
  in
  let runs =
    run_cells ~ctx ~experiment:"faults-lossy"
      (List.map
         (fun (p, scheme) ->
           ( Printf.sprintf "%.4f" p,
             {
               config with
               D.scheme;
               fault = Some (Fault.lossy (Units.Prob.v p));
             } ))
         cells)
  in
  let rows =
    List.map2
      (fun (p, scheme) cell ->
        Printf.sprintf "%.1f%%" (100.0 *. p)
        :: Schemes.name scheme
        ::
        (match cell with
        | Ok r ->
            [
              mbps r.goodput_bps;
              Output.cell_f r.result.D.utilization;
              Output.cell_f ~digits:1
                (Units.Pkts.to_float r.result.D.avg_queue_pkts);
              Output.cell_e r.result.D.drop_rate;
              Output.cell_i (fstat r (fun s -> s.Fault.wire_drops));
              Output.cell_i r.result.D.loss_events;
              Output.cell_i r.timeouts;
              Output.cell_i r.result.D.audit_violations;
            ]
        | Error f -> Runner.failure_cells ~width:8 f))
      cells runs
  in
  {
    Output.title =
      "Fault suite: random non-congestive loss on the bottleneck (Section \
       7 robustness; PERT should track SACK, not collapse)";
    header =
      [
        "loss";
        "scheme";
        "goodput(Mb/s)";
        "util";
        "Q(pkts)";
        "qdrop";
        "wire-drops";
        "loss-ev";
        "RTOs";
        "audit";
      ];
    rows;
  }

(* --- link flapping -------------------------------------------------------- *)

let flapping ?(ctx = Runner.default) scale =
  let config = base scale in
  let mean_up = Float.max 2.0 (config.D.duration /. 12.0) in
  let mean_down = Scale.pick scale ~smoke:0.3 ~quick:0.4 ~default:0.5 ~full:1.0 in
  let spec =
    {
      Fault.none with
      Fault.outages =
        Fault.Flapping
          {
            mean_up = Units.Time.s mean_up;
            mean_down = Units.Time.s mean_down;
          };
    }
  in
  let runs =
    run_cells ~ctx ~experiment:"faults-flapping"
      (List.map
         (fun scheme ->
           (Schemes.name scheme, { config with D.scheme; fault = Some spec }))
         schemes)
  in
  let rows =
    List.map2
      (fun scheme cell ->
        Schemes.name scheme
        ::
        (match cell with
        | Ok r ->
            [
              Output.cell_f ~digits:1
                (match r.fstats with
                | Some s -> s.Fault.downtime
                | None -> 0.0);
              Output.cell_i (fstat r (fun s -> s.Fault.transitions));
              Output.cell_i (fstat r (fun s -> s.Fault.outage_drops));
              mbps r.goodput_bps;
              Output.cell_f r.result.D.utilization;
              Output.cell_i r.timeouts;
              Output.cell_i r.result.D.audit_violations;
            ]
        | Error f -> Runner.failure_cells ~width:7 f))
      schemes runs
  in
  {
    Output.title =
      Printf.sprintf
        "Fault suite: bottleneck flapping (exp up %.1fs / down %.1fs) — \
         recovery via RTO backoff, no livelock"
        mean_up mean_down;
    header =
      [
        "scheme"; "down(s)"; "flaps"; "outage-drops"; "goodput(Mb/s)";
        "util"; "RTOs"; "audit";
      ];
    rows;
  }

(* --- ECN bleaching -------------------------------------------------------- *)

let bleached ?(ctx = Runner.default) scale =
  let config = base scale in
  let levels =
    Scale.pick scale ~smoke:[ 1.0 ] ~quick:[ 1.0 ] ~default:[ 0.0; 0.5; 1.0 ]
      ~full:[ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  let cells =
    List.concat_map
      (fun bleach ->
        List.map
          (fun scheme -> (bleach, scheme))
          [ Schemes.Pert_ecn; Schemes.Sack_red_ecn ])
      levels
  in
  let runs =
    run_cells ~ctx ~experiment:"faults-bleached"
      (List.map
         (fun (bleach, scheme) ->
           let spec =
             { Fault.none with Fault.bleach_prob = Units.Prob.v bleach }
           in
           ( Printf.sprintf "%.4f" bleach,
             { config with D.scheme; fault = Some spec } ))
         cells)
  in
  let rows =
    List.map2
      (fun (bleach, scheme) cell ->
        Printf.sprintf "%.0f%%" (100.0 *. bleach)
        :: Schemes.name scheme
        ::
        (match cell with
        | Ok r ->
            [
              Output.cell_i r.result.D.marks;
              Output.cell_i (fstat r (fun s -> s.Fault.bleached));
              mbps r.goodput_bps;
              Output.cell_f r.result.D.utilization;
              Output.cell_f ~digits:1
                (Units.Pkts.to_float r.result.D.avg_queue_pkts);
              Output.cell_e r.result.D.drop_rate;
              Output.cell_i r.result.D.audit_violations;
            ]
        | Error f -> Runner.failure_cells ~width:7 f))
      cells runs
  in
  {
    Output.title =
      "Fault suite: ECN bleaching middlebox — PERT+ECN falls back to its \
       delay signal, SACK/RED-ECN falls back to drops";
    header =
      [
        "bleach"; "scheme"; "marks"; "bleached"; "goodput(Mb/s)"; "util";
        "Q(pkts)"; "qdrop"; "audit";
      ];
    rows;
  }

let all ?(ctx = Runner.default) scale =
  [ lossy ~ctx scale; flapping ~ctx scale; bleached ~ctx scale ]
