(* Tests for the fault-injection layer (Netsim.Fault): spec validation,
   deterministic replay, outage accounting, packet conservation under
   impairment (via the audit), reordering tolerance of SACK, and the
   graceful-degradation bar (PERT >= SACK under non-congestive loss). *)

module Sim = Sim_engine.Sim
module Audit = Sim_engine.Audit
module T = Netsim.Topology
module Link = Netsim.Link
module Fault = Netsim.Fault
module Flow = Tcpstack.Flow
module D = Experiments.Dumbbell

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ts = Units.Time.s
let pv = Units.Prob.v

(* --- spec validation ---------------------------------------------------------- *)

let mini_link ?(seed = 3) () =
  let sim = Sim.create ~seed () in
  let topo = T.create sim in
  let a = T.add_node topo and b = T.add_node topo in
  let link =
    T.add_link topo ~src:a ~dst:b ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01)
      ~disc:(Netsim.Droptail.create ~limit_pkts:100)
  in
  (sim, link)

let spec_validation () =
  let _, link = mini_link () in
  let reject msg spec =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault.attach spec link))
  in
  (* out-of-range and NaN probabilities are unrepresentable now: the
     [Units.Prob.v] smart constructor clamps the former and rejects the
     latter before a spec can even be built *)
  Alcotest.check_raises "NaN probability rejected at construction"
    (Invalid_argument "Units.Prob.v: NaN") (fun () ->
      ignore (Fault.lossy (pv Float.nan)));
  check_bool "overrange probability clamps to 1" true
    (Float.equal (Units.Prob.to_float (pv 1.5)) 1.0);
  reject "Fault: negative reorder_extra"
    { Fault.none with Fault.reorder_extra = ts (-1.0) };
  reject "Fault: outage windows need 0 <= down_at < up_at"
    { Fault.none with Fault.outages = Fault.Scheduled [ (ts 2.0, ts 1.0) ] };
  reject "Fault: flapping means must be positive"
    {
      Fault.none with
      Fault.outages = Fault.Flapping { mean_up = ts 0.0; mean_down = ts 1.0 };
    };
  (* the identity spec attaches cleanly and impairs nothing *)
  let f = Fault.attach Fault.none link in
  check_int "nothing lost" 0 (Fault.lost f)

let scheduled_outage_accounting () =
  let sim, link = mini_link () in
  let f =
    Fault.attach
      {
        Fault.none with
        Fault.outages = Fault.Scheduled [ (ts 1.0, ts 1.5); (ts 3.0, ts 4.0) ];
      }
      link
  in
  Sim.run ~until:(ts 1.2) sim;
  check_bool "down inside the window" false (Link.is_up link);
  Sim.run ~until:(ts 2.0) sim;
  check_bool "back up between windows" true (Link.is_up link);
  Sim.run ~until:(ts 5.0) sim;
  let s = Fault.stats f in
  check_int "two down + two up transitions" 4 s.Fault.transitions;
  Alcotest.(check (float 1e-9)) "downtime is the window total" 1.5
    s.Fault.downtime

(* --- dumbbell integration ------------------------------------------------------ *)

let small_config ?fault ?(scheme = Experiments.Schemes.Pert) () =
  D.uniform_flows
    {
      D.default with
      D.scheme;
      bandwidth = 10e6;
      duration = 12.0;
      warmup = 3.0;
      seed = 11;
      fault;
    }
    ~n:4

let run config =
  let built = D.build config in
  (built, D.run_phases built)

let check_links_conserve built =
  List.iter
    (fun l ->
      match Link.conservation_error l with
      | None -> ()
      | Some msg -> Alcotest.fail (Link.name l ^ ": " ^ msg))
    (T.links built.D.topo)

let deterministic_replay () =
  (* Same seed, same spec: the whole impaired run — drop schedule, outage
     schedule, goodputs — must replay bit-for-bit. *)
  let spec =
    {
      (Fault.lossy (pv 0.02)) with
      Fault.reorder_prob = pv 0.05;
      reorder_extra = ts 2e-3;
      dup_prob = pv 0.01;
      outages = Fault.Flapping { mean_up = ts 3.0; mean_down = ts 0.2 };
    }
  in
  let once () =
    let built, r = run (small_config ~fault:spec ()) in
    match built.D.fault with
    | Some f -> (Fault.stats f, r.D.per_flow_goodput)
    | None -> Alcotest.fail "no fault handle on built dumbbell"
  in
  let s1, g1 = once () in
  let s2, g2 = once () in
  check_bool "identical fault stats" true (s1 = s2);
  check_bool "identical per-flow goodputs" true (g1 = g2);
  check_bool "impairments actually fired" true
    (s1.Fault.wire_drops > 0 && s1.Fault.transitions > 0)

let conservation_on_clean_dumbbell () =
  let built, r = run (small_config ()) in
  check_int "no audit violations" 0 r.D.audit_violations;
  check_links_conserve built

let conservation_under_impairment () =
  (* Loss, corruption, duplication and outages all bend the packet flow;
     none may break per-link conservation or any flow invariant. *)
  let spec =
    {
      (Fault.lossy (pv 0.05)) with
      Fault.corrupt_prob = pv 0.01;
      dup_prob = pv 0.02;
      outages = Fault.Scheduled [ (ts 4.0, ts 5.0); (ts 7.0, ts 7.5) ];
    }
  in
  let built, r = run (small_config ~fault:spec ()) in
  check_int "no audit violations" 0 r.D.audit_violations;
  check_links_conserve built;
  match built.D.fault with
  | Some f -> check_bool "fault removed packets" true (Fault.lost f > 0)
  | None -> Alcotest.fail "no fault handle"

(* --- reordering tolerance ------------------------------------------------------ *)

let sack_tolerates_mild_reordering () =
  (* Extra delay under ~2 serialization times displaces a packet by at
     most 2 positions — below the 3-dupack threshold — so SACK must
     deliver everything with zero retransmissions and zero loss events. *)
  let sim = Sim.create ~seed:11 () in
  let topo = T.create sim in
  let src = T.add_node topo and dst = T.add_node topo in
  let disc () = Netsim.Droptail.create ~limit_pkts:1000 in
  let fwd =
    T.add_link topo ~src ~dst ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01) ~disc:(disc ())
  in
  ignore
    (T.add_link topo ~src:dst ~dst:src ~bandwidth:(Units.Rate.bps 10e6) ~delay:(ts 0.01)
       ~disc:(disc ()));
  T.compute_routes topo;
  let f =
    Fault.attach
      { Fault.none with Fault.reorder_prob = pv 0.05; reorder_extra = ts 2e-3 }
      fwd
  in
  let flow =
    Flow.create topo ~src ~dst ~cc:(Tcpstack.Cc.newreno ()) ~total_pkts:400 ()
  in
  Sim.run ~until:(ts 60.0) sim;
  check_bool "completed" true (Flow.completed flow);
  check_int "all data acked exactly once" 400 (Flow.acked_pkts flow);
  check_bool "packets really were delayed out of order" true
    ((Fault.stats f).Fault.reordered > 10);
  check_int "no spurious retransmissions" 0 (Flow.retransmissions flow);
  check_int "no loss events" 0 (Flow.loss_events flow)

(* --- graceful degradation ------------------------------------------------------ *)

let pert_holds_goodput_under_wire_loss () =
  (* The robustness bar from the paper's Section 7 argument: with 1%
     non-congestive loss polluting both signals, PERT's aggregate goodput
     must not fall below plain SACK's. *)
  let goodput scheme =
    let built, r = run (small_config ~fault:(Fault.lossy (pv 0.01)) ~scheme ()) in
    check_int "no audit violations" 0 r.D.audit_violations;
    ignore built;
    Array.fold_left
      (fun acc g -> acc +. Units.Rate.to_bps g)
      0.0 r.D.per_flow_goodput
  in
  let pert = goodput Experiments.Schemes.Pert in
  let sack = goodput Experiments.Schemes.Sack_droptail in
  check_bool "sack still moves data" true (sack > 1e6);
  check_bool "pert >= sack at 1% wire loss" true (pert >= sack)

let suite =
  [
    ("spec validation", `Quick, spec_validation);
    ("scheduled outage accounting", `Quick, scheduled_outage_accounting);
    ("deterministic replay", `Quick, deterministic_replay);
    ("conservation on clean dumbbell", `Quick, conservation_on_clean_dumbbell);
    ("conservation under impairment", `Quick, conservation_under_impairment);
    ("sack tolerates mild reordering", `Quick, sack_tolerates_mild_reordering);
    ("pert >= sack under wire loss", `Quick, pert_holds_goodput_under_wire_loss);
  ]
