(* The hostile-network suite: what the fault suite is to passive
   impairment, this is to an active on-path attacker ({!Fault.attack}).
   Three attack classes, each a table:

   - blind RST storms (RFC 5961's threat model): with validation, a
     forged RST must hit the exact sequence to kill a connection, so
     flows survive and goodput holds; a no-validation contrast row shows
     the collapse the RFC prevents;
   - forged duplicate-ACK storms: trigger spurious fast retransmits and
     window cuts — the damage shows up as inflated fast-recovery and
     retransmission counts;
   - window-clamp episodes: advertisements rewritten to zero in flight.
     Persist probing rides the episode out; a no-persist contrast row
     deadlocks and is caught by the audit stall watchdog (the violation
     count in the last column is the point of the row).

   Every run executes with the invariant audit on; for the hardened
   configurations the expected violation count is 0. *)

module Sim = Sim_engine.Sim
module T = Netsim.Topology
module Fault = Netsim.Fault
module Flow = Tcpstack.Flow
module D = Dumbbell

let schemes = [ Schemes.Pert; Schemes.Sack_droptail ]

let base ~seed scale =
  let bandwidth =
    Scale.pick scale ~smoke:5e6 ~quick:10e6 ~default:40e6 ~full:100e6
  in
  let nflows = Scale.pick scale ~smoke:4 ~quick:6 ~default:16 ~full:40 in
  let duration =
    Scale.pick scale ~smoke:8.0 ~quick:30.0 ~default:60.0 ~full:240.0
  in
  D.uniform_flows
    { D.default with D.bandwidth; duration; warmup = duration /. 4.0; seed }
    ~n:nflows

(* Per-run summary: survival and the hardening counters, summed over the
   forward long-lived flows, plus the adversary's own accounting. *)
type run = {
  result : D.result;
  goodput_bps : Units.Rate.t;
  survivors : int;
  total : int;
  rsts_received : int;
  rsts_ignored : int;
  challenges : int;
  probes : int;
  zero_wnd : int;
  retransmissions : int;
  fast_recoveries : int;
  timeouts : int;
  astats : Fault.attack_stats option;
}

let sum flows get = List.fold_left (fun a f -> a + get f) 0 flows

let summary built result =
  let flows = built.D.forward_flows in
  {
    result;
    goodput_bps =
      Units.Rate.bps
        (Array.fold_left
           (fun a r -> a +. Units.Rate.to_bps r)
           0.0 result.D.per_flow_goodput);
    survivors = List.length (List.filter (fun f -> not (Flow.aborted f)) flows);
    total = List.length flows;
    rsts_received = sum flows Flow.rsts_received;
    rsts_ignored = sum flows Flow.rsts_ignored;
    challenges = sum flows Flow.challenge_acks;
    probes = sum flows Flow.persist_probes;
    zero_wnd = sum flows Flow.zero_window_episodes;
    retransmissions = sum flows Flow.retransmissions;
    fast_recoveries = sum flows Flow.fast_recoveries;
    timeouts = sum flows Flow.timeouts;
    astats = Option.map Fault.attack_stats built.D.attack;
  }

let mbps v = Output.cell_f ~digits:2 (Units.Rate.to_mbps v)
let astat r get = match r.astats with Some s -> get s | None -> 0

let run_cells ~ctx ~experiment specs =
  D.run_cells_with ~ctx ~experiment ~summary specs

(* --- blind RST storms ----------------------------------------------------- *)

let rst_rates scale =
  Scale.pick scale ~smoke:[ 50.0 ] ~quick:[ 50.0 ]
    ~default:[ 10.0; 50.0; 200.0 ]
    ~full:[ 5.0; 20.0; 50.0; 200.0; 500.0 ]

let rst_storm ?(ctx = Runner.default) scale =
  let config = base ~seed:ctx.Runner.seed scale in
  (* The hardened schemes, plus one row with RFC 5961 validation off:
     the storm then kills connections at will. *)
  let variants =
    List.map (fun s -> (s, true)) schemes @ [ (Schemes.Pert, false) ]
  in
  let label (scheme, validated) =
    Schemes.name scheme ^ if validated then "" else "(no-5961)"
  in
  let cells =
    List.concat_map
      (fun rate -> List.map (fun v -> (rate, v)) variants)
      (rst_rates scale)
  in
  let runs =
    run_cells ~ctx ~experiment:"adversarial-rst"
      (List.map
         (fun (rate, ((scheme, validated) as v)) ->
           ( Printf.sprintf "%.0f-%s" rate (label v),
             {
               config with
               D.scheme;
               tcp = { D.default_tcp with D.rst_validation = validated };
               adversary = Some { Fault.passive with Fault.rst_rate = rate };
             } ))
         cells)
  in
  let rows =
    List.map2
      (fun (rate, v) cell ->
        Printf.sprintf "%.0f/s" rate
        :: label v
        ::
        (match cell with
        | Ok r ->
            [
              mbps r.goodput_bps;
              Printf.sprintf "%d/%d" r.survivors r.total;
              Output.cell_i (astat r (fun s -> s.Fault.forged_rsts));
              Output.cell_i r.rsts_ignored;
              Output.cell_i r.challenges;
              Output.cell_i r.timeouts;
              Output.cell_i r.result.D.audit_violations;
            ]
        | Error f -> Runner.failure_cells ~width:7 f))
      cells runs
  in
  {
    Output.title =
      "Adversarial suite: blind RST storm (RFC 5961) — validated stacks \
       drop out-of-window forgeries and survive; the no-5961 row shows \
       the collapse";
    header =
      [
        "rate"; "scheme"; "goodput(Mb/s)"; "surv"; "forged"; "ignored";
        "challenged"; "RTOs"; "audit";
      ];
    rows;
  }

(* --- forged duplicate-ACK storms ------------------------------------------ *)

let ack_rates scale =
  Scale.pick scale ~smoke:[ 20.0 ] ~quick:[ 20.0 ]
    ~default:[ 5.0; 20.0; 100.0 ]
    ~full:[ 2.0; 10.0; 50.0; 200.0 ]

let ack_storm ?(ctx = Runner.default) scale =
  let config = base ~seed:ctx.Runner.seed scale in
  let cells =
    List.concat_map
      (fun rate -> List.map (fun scheme -> (rate, scheme)) schemes)
      (ack_rates scale)
  in
  let runs =
    run_cells ~ctx ~experiment:"adversarial-ack"
      (List.map
         (fun (rate, scheme) ->
           ( Printf.sprintf "%.0f" rate,
             {
               config with
               D.scheme;
               adversary = Some { Fault.passive with Fault.ack_rate = rate };
             } ))
         cells)
  in
  let rows =
    List.map2
      (fun (rate, scheme) cell ->
        Printf.sprintf "%.0f/s" rate
        :: Schemes.name scheme
        ::
        (match cell with
        | Ok r ->
            [
              mbps r.goodput_bps;
              Output.cell_i (astat r (fun s -> s.Fault.forged_acks));
              Output.cell_i r.fast_recoveries;
              Output.cell_i r.retransmissions;
              Output.cell_i r.timeouts;
              Output.cell_i r.result.D.audit_violations;
            ]
        | Error f -> Runner.failure_cells ~width:6 f))
      cells runs
  in
  {
    Output.title =
      "Adversarial suite: forged duplicate-ACK storm — spurious fast \
       retransmits cut the window; goodput degrades but connections hold";
    header =
      [
        "rate"; "scheme"; "goodput(Mb/s)"; "forged-acks"; "fast-rec";
        "retx"; "RTOs"; "audit";
      ];
    rows;
  }

(* --- window-clamp episodes ------------------------------------------------ *)

let clamp ?(ctx = Runner.default) scale =
  let config = base ~seed:ctx.Runner.seed scale in
  (* Episodes must be short relative to their spacing: the persist
     backoff needs a clear post-episode gap in which a probe can land
     and re-elicit an honest advertisement. *)
  let episode_len =
    Scale.pick scale ~smoke:0.5 ~quick:0.8 ~default:1.0 ~full:2.0
  in
  let span = config.D.duration -. config.D.warmup in
  let episodes =
    List.init 3 (fun k ->
        let from_t = config.D.warmup +. (float_of_int (k + 1) *. span /. 4.0) in
        (Units.Time.s from_t, Units.Time.s (from_t +. episode_len)))
  in
  let adversary =
    Some
      { Fault.passive with Fault.clamp_episodes = episodes; clamp_to = 0 }
  in
  (* Persist probing on for the hardened schemes; the no-persist contrast
     row deadlocks after the first episode — the nonzero audit column is
     the stall watchdog catching it. *)
  let variants =
    List.map (fun s -> (s, true)) schemes @ [ (Schemes.Pert, false) ]
  in
  let label (scheme, persist) =
    Schemes.name scheme ^ if persist then "" else "(no-persist)"
  in
  let runs =
    run_cells ~ctx ~experiment:"adversarial-clamp"
      (List.map
         (fun ((scheme, persist) as v) ->
           ( label v,
             {
               config with
               D.scheme;
               tcp = { D.default_tcp with D.persist };
               adversary;
             } ))
         variants)
  in
  let rows =
    List.map2
      (fun v cell ->
        label v
        ::
        (match cell with
        | Ok r ->
            [
              Output.cell_i (astat r (fun s -> s.Fault.clamped_acks));
              Output.cell_i r.zero_wnd;
              Output.cell_i r.probes;
              mbps r.goodput_bps;
              Output.cell_i r.timeouts;
              Output.cell_i r.result.D.audit_violations;
            ]
        | Error f -> Runner.failure_cells ~width:6 f))
      variants runs
  in
  {
    Output.title =
      Printf.sprintf
        "Adversarial suite: window-clamp episodes (3 x %.1fs, advertised \
         window forced to 0 in flight) — persist probes reopen the flow; \
         without them it deadlocks and the stall watchdog fires"
        episode_len;
    header =
      [
        "scheme"; "clamped"; "zero-wnd"; "probes"; "goodput(Mb/s)"; "RTOs";
        "audit";
      ];
    rows;
  }

let all ?(ctx = Runner.default) scale =
  [ rst_storm ~ctx scale; ack_storm ~ctx scale; clamp ~ctx scale ]
