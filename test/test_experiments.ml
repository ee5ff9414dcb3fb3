(* Tests for the experiment harness: the dumbbell builder/runner, scheme
   configuration, output tables, and quick-scale sanity of the headline
   qualitative results. *)

open Experiments

let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Schemes ------------------------------------------------------------------ *)

let schemes_names_and_ecn () =
  Alcotest.(check (list string)) "paper order"
    [ "pert"; "sack-droptail"; "sack-red-ecn"; "vegas" ]
    (List.map Schemes.name Schemes.all_fig4_schemes);
  check_bool "red uses ecn" true (Schemes.uses_ecn Schemes.Sack_red_ecn);
  check_bool "pert endpoint-only" false (Schemes.uses_ecn Schemes.Pert);
  check_bool "pi router uses ecn" true
    (Schemes.uses_ecn (Schemes.Sack_pi_ecn { target_delay = Units.Time.s 0.003 }))

let schemes_disc_kinds () =
  let sim = Sim_engine.Sim.create () in
  let ctx =
    { Schemes.sim; capacity_pps = 1000.0; limit_pkts = 100; rtt = 0.06; nflows = 8 }
  in
  let target_delay = Units.Time.s 0.003 in
  List.iter
    (fun (scheme, kind) ->
      Alcotest.(check string)
        (Schemes.name scheme ^ " bottleneck") kind
        (Schemes.bottleneck_disc scheme ctx).Netsim.Queue_disc.name)
    [
      (Schemes.Pert, "droptail");
      (Schemes.Sack_droptail, "droptail");
      (Schemes.Vegas, "droptail");
      (Schemes.Pert_pi { target_delay }, "droptail");
      (Schemes.Pert_rem, "droptail");
      (Schemes.Pert_avq, "droptail");
      (Schemes.Pert_ecn, "red");
      (Schemes.Sack_red_ecn, "red");
      (Schemes.Sack_pi_ecn { target_delay }, "pi");
      (Schemes.Sack_rem_ecn, "rem");
      (Schemes.Sack_avq_ecn, "avq");
    ]

(* [of_string] inverts [name] (Pert_tuned has no name of its own), and
   every alias lands on its scheme. *)
let schemes_of_string () =
  let target_delay = Units.Time.s 0.003 in
  let same a b =
    match (a, b) with
    | Schemes.Pert_pi { target_delay = x }, Schemes.Pert_pi { target_delay = y }
    | ( Schemes.Sack_pi_ecn { target_delay = x },
        Schemes.Sack_pi_ecn { target_delay = y } ) ->
        Float.equal (Units.Time.to_s x) (Units.Time.to_s y)
    | _ -> String.equal (Schemes.name a) (Schemes.name b)
  in
  let parses name expected =
    match Schemes.of_string name with
    | Ok s -> check_bool (name ^ " parses") true (same s expected)
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun s -> parses (Schemes.name s) s)
    [
      Schemes.Pert;
      Schemes.Pert_ecn;
      Schemes.Sack_droptail;
      Schemes.Sack_red_ecn;
      Schemes.Vegas;
      Schemes.Pert_pi { target_delay };
      Schemes.Sack_pi_ecn { target_delay };
      Schemes.Pert_rem;
      Schemes.Pert_avq;
      Schemes.Sack_rem_ecn;
      Schemes.Sack_avq_ecn;
    ];
  List.iter
    (fun (alias, s) -> parses alias s)
    [
      ("sack", Schemes.Sack_droptail);
      ("droptail", Schemes.Sack_droptail);
      ("newreno", Schemes.Sack_droptail);
      ("red", Schemes.Sack_red_ecn);
      ("pi", Schemes.Sack_pi_ecn { target_delay });
      ("rem", Schemes.Sack_rem_ecn);
      ("avq", Schemes.Sack_avq_ecn);
    ];
  List.iter
    (fun name ->
      check_bool (name ^ " is rejected") true
        (Result.is_error (Schemes.of_string name)))
    [ "pert-tuned"; "PERT"; "" ]

(* --- Dumbbell ------------------------------------------------------------------ *)

let bdp_rule () =
  (* 50 Mbps * 60 ms / (8 * 1040 B) = 360 packets *)
  check_int "bdp pkts" 360 (Dumbbell.bdp_pkts ~bandwidth:50e6 ~rtt:0.060);
  let cfg = Dumbbell.uniform_flows Dumbbell.default ~n:300 in
  let built = Dumbbell.build { cfg with Dumbbell.web_sessions = 0 } in
  let buffer =
    (Netsim.Link.disc built.Dumbbell.bottleneck).Netsim.Queue_disc.capacity_pkts
  in
  check_int "floor at 2x flows" 600 buffer

let uniform_flows_helper () =
  let cfg = Dumbbell.uniform_flows Dumbbell.default ~n:5 in
  check_int "five rtts" 5 (List.length cfg.Dumbbell.flow_rtts);
  List.iter
    (fun r -> check_float_eps 1e-12 "all equal default rtt" cfg.Dumbbell.rtt r)
    cfg.Dumbbell.flow_rtts

let measured_rtt_matches_config () =
  (* The topology must realise the configured propagation delay. *)
  let cfg =
    Dumbbell.uniform_flows
      { Dumbbell.default with Dumbbell.bandwidth = 100e6; rtt = 0.080;
        start_window = (0.0, 0.0) }
      ~n:1
  in
  let built = Dumbbell.build cfg in
  let flow = List.hd built.Dumbbell.forward_flows in
  Tcpstack.Flow.enable_rtt_trace flow;
  Sim_engine.Sim.run ~until:(Units.Time.s 2.0)
    (Netsim.Topology.sim built.Dumbbell.topo);
  let _, rtts, _ = Tcpstack.Flow.rtt_trace flow in
  let min_rtt = Array.fold_left min infinity rtts in
  (* propagation plus a little serialisation *)
  check_bool "min rtt close to configured" true
    (min_rtt >= 0.080 && min_rtt < 0.083)

let dumbbell_result_consistency () =
  let cfg =
    Dumbbell.uniform_flows
      { Dumbbell.default with Dumbbell.bandwidth = 10e6; duration = 20.0; warmup = 8.0 }
      ~n:4
  in
  let r = Dumbbell.run cfg in
  check_float_eps 1e-9 "norm = pkts / buffer"
    (Units.Pkts.to_float r.Dumbbell.avg_queue_pkts
    /. float_of_int r.Dumbbell.buffer_pkts)
    r.Dumbbell.avg_queue_norm;
  check_int "per-flow vector sized" 4 (Array.length r.Dumbbell.per_flow_goodput);
  check_bool "utilization sane" true
    (r.Dumbbell.utilization > 0.5 && r.Dumbbell.utilization <= 1.05);
  check_bool "jain in range" true (r.Dumbbell.jain > 0.25 && r.Dumbbell.jain <= 1.0)

let headline_qualitative_result () =
  (* The paper's core claim at smoke scale: PERT keeps the queue far
     below DropTail at (near) zero drops, with comparable utilisation. *)
  let run scheme =
    Dumbbell.run
      (Dumbbell.uniform_flows
         { Dumbbell.default with Dumbbell.scheme; bandwidth = 10e6;
           duration = 30.0; warmup = 10.0 }
         ~n:6)
  in
  let pert = run Schemes.Pert and dt = run Schemes.Sack_droptail in
  check_bool "queue much smaller" true
    (Units.Pkts.to_float pert.Dumbbell.avg_queue_pkts
    < Units.Pkts.to_float dt.Dumbbell.avg_queue_pkts /. 2.0);
  check_bool "drops lower" true (pert.Dumbbell.drop_rate <= dt.Dumbbell.drop_rate);
  check_bool "pert used early response" true (pert.Dumbbell.early_responses > 0);
  check_bool "utilisation comparable" true
    (pert.Dumbbell.utilization > dt.Dumbbell.utilization -. 0.15)

let vegas_zero_loss_smoke () =
  let r =
    Dumbbell.run
      (Dumbbell.uniform_flows
         { Dumbbell.default with Dumbbell.scheme = Schemes.Vegas;
           bandwidth = 10e6; duration = 30.0; warmup = 10.0 }
         ~n:6)
  in
  check_float_eps 1e-9 "vegas: no drops" 0.0 r.Dumbbell.drop_rate;
  check_bool "vegas: full pipe" true (r.Dumbbell.utilization > 0.9)

(* --- Output --------------------------------------------------------------------- *)

let output_cells () =
  Alcotest.(check string) "fixed" "1.500" (Output.cell_f 1.5);
  Alcotest.(check string) "digits" "1.50" (Output.cell_f ~digits:2 1.5);
  Alcotest.(check string) "sci" "1.00e-03" (Output.cell_e 0.001);
  Alcotest.(check string) "int" "42" (Output.cell_i 42)

let output_csv () =
  let t =
    { Output.title = "t"; header = [ "a"; "b" ]; rows = [ [ "1"; "2" ]; [ "3"; "4" ] ] }
  in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,4\n" (Output.to_csv t)

let output_gnuplot () =
  let t =
    { Output.title = "t"; header = [ "a"; "b" ]; rows = [ [ "1"; "2" ] ] }
  in
  Alcotest.(check string) "gnuplot" "# t\n# a b\n1 2\n" (Output.to_gnuplot t)

let scale_parsing () =
  check_bool "quick" true (Scale.of_string "quick" = Ok Scale.Quick);
  check_bool "default" true (Scale.of_string "default" = Ok Scale.Default);
  check_bool "full" true (Scale.of_string "full" = Ok Scale.Full);
  check_bool "junk rejected" true (Result.is_error (Scale.of_string "huge"));
  Alcotest.(check string) "round trip" "full" (Scale.to_string Scale.Full)

(* --- Registry -------------------------------------------------------------------- *)

let registry_covers_paper () =
  let ids = Registry.ids () in
  List.iter
    (fun id -> check_bool (id ^ " present") true (List.mem id ids))
    [ "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "table1"; "fig11"; "fig12"; "fig13a"; "fig13"; "fig14" ];
  check_int "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  check_bool "find works" true (Registry.find "fig6" <> None);
  check_bool "find rejects junk" true (Registry.find "fig99" = None)

let fig6_structure () =
  let t = Sweeps.fig6 Scale.Quick in
  (* 2 quick bandwidth points x 4 schemes *)
  check_int "rows" 8 (List.length t.Output.rows);
  List.iter
    (fun row ->
      check_int "columns" (List.length t.Output.header) (List.length row);
      (* numeric cells parse *)
      match row with
      | _mbps :: _scheme :: rest ->
          List.iter (fun c -> ignore (float_of_string c)) rest
      | _ -> Alcotest.fail "short row")
    t.Output.rows;
  (* every scheme appears at every point *)
  let schemes_in_rows =
    List.map (fun row -> List.nth row 1) t.Output.rows |> List.sort_uniq compare
  in
  check_int "four schemes present" 4 (List.length schemes_in_rows)

let fig5_is_the_curve () =
  match (Option.get (Registry.find "fig5")).Registry.run ~ctx:Runner.default Scale.Quick with
  | [ t ] ->
      check_int "26 sample points" 26 (List.length t.Output.rows);
      let last = List.nth t.Output.rows 25 in
      Alcotest.(check (list string)) "saturates at 1" [ "0.025"; "1.0000" ] last
  | _ -> Alcotest.fail "fig5 should emit one table"

let fig13a_matches_paper_point () =
  match
    (Option.get (Registry.find "fig13a")).Registry.run ~ctx:Runner.default Scale.Quick
  with
  | [ t ] ->
      check_int "fifty rows" 50 (List.length t.Output.rows);
      (* N- = 40 row: delta_min ~ 0.115 s (paper: reaches 0.1 near N=40) *)
      let row40 = List.nth t.Output.rows 39 in
      let d = float_of_string (List.nth row40 1) in
      check_bool "near 0.1 s" true (d > 0.05 && d < 0.2)
  | _ -> Alcotest.fail "fig13a should emit one table"

(* --- Multi-bottleneck / dynamic smoke --------------------------------------------- *)

let multibneck_smoke () =
  let config =
    { (Multibneck.default Scale.Quick Schemes.Pert) with
      Multibneck.duration = 12.0; warmup = 5.0; cloud_size = 3 }
  in
  let reports, long_jain = Multibneck.run config in
  check_int "five hops" 5 (List.length reports);
  List.iter
    (fun r ->
      check_bool "hop utilised" true (r.Multibneck.utilization > 0.5);
      check_bool "queue bounded" true (r.Multibneck.avg_queue_norm < 0.9))
    reports;
  check_bool "long-haul fairness sane" true (long_jain > 0.5)

let dynamic_cbr_yield_and_reclaim () =
  let config =
    { (Dynamic.default Scale.Quick Schemes.Pert) with
      Dynamic.epoch = 8.0; bin = 2.0; cohort_size = 3 }
  in
  let times, tcp, cbr = Dynamic.run_cbr config ~cbr_share:0.5 in
  let n = Array.length times in
  check_int "three phases sampled" n (Array.length tcp);
  (* CBR silent in the first and last thirds, active in the middle *)
  check_float_eps 1e-9 "cbr off early" 0.0 cbr.(1);
  check_bool "cbr on mid-run" true (cbr.(n / 2) > 0.0);
  (* TCP yields while CBR is on, then reclaims *)
  check_bool "tcp yields" true (tcp.(n / 2) < tcp.(2));
  check_bool "tcp reclaims" true (tcp.(n - 1) > tcp.(n / 2))

let dynamic_conservation () =
  let config =
    { (Dynamic.default Scale.Quick Schemes.Pert) with
      Dynamic.epoch = 6.0; bin = 2.0; cohort_size = 3 }
  in
  let times, series = Dynamic.run config in
  check_int "four cohorts" 4 (Array.length series);
  check_bool "bins exist" true (Array.length times > 10);
  (* cohort 2 must be silent before its join epoch and active after *)
  check_float_eps 1e-9 "cohort2 silent early" 0.0 series.(1).(1);
  let mid = Array.length times / 2 in
  check_bool "cohort2 active mid-run" true (series.(1).(mid) > 0.0);
  (* total throughput never exceeds capacity (plus header slack) *)
  Array.iteri
    (fun i _ ->
      let total = Array.fold_left (fun a s -> a +. s.(i)) 0.0 series in
      check_bool "below capacity" true (total <= config.Dynamic.bandwidth *. 1.05))
    times;
  (* after all departures only the last cohort remains *)
  let last = Array.length times - 1 in
  check_float_eps 1e-9 "cohort1 gone at end" 0.0 series.(0).(last);
  check_bool "last cohort reclaims" true (series.(3).(last) > 0.0)

let other_aqm_schemes_smoke () =
  List.iter
    (fun scheme ->
      let r =
        Dumbbell.run
          (Dumbbell.uniform_flows
             { Dumbbell.default with Dumbbell.scheme; bandwidth = 10e6;
               duration = 25.0; warmup = 10.0 }
             ~n:4)
      in
      check_bool
        (Schemes.name scheme ^ " regulates the queue")
        true
        (r.Dumbbell.avg_queue_norm < 0.6);
      check_bool
        (Schemes.name scheme ^ " keeps the pipe busy")
        true
        (r.Dumbbell.utilization > 0.6))
    [ Schemes.Pert_rem; Schemes.Pert_avq; Schemes.Sack_rem_ecn;
      Schemes.Sack_avq_ecn ]

let tuned_scheme_matches_default () =
  (* Pert_tuned with the paper's knobs must behave like Pert. *)
  let cfg scheme =
    Dumbbell.uniform_flows
      { Dumbbell.default with Dumbbell.scheme; bandwidth = 10e6;
        duration = 25.0; warmup = 10.0 }
      ~n:4
  in
  let a = Dumbbell.run (cfg Schemes.Pert) in
  let b =
    Dumbbell.run
      (cfg
         (Schemes.Pert_tuned
            { curve = Pert_core.Response_curve.default; alpha = 0.99;
              decrease_factor = 0.35; limit_per_rtt = true }))
  in
  (* identical code path modulo RNG stream: same qualitative regime *)
  check_bool "similar queue" true
    (Float.abs
       (Units.Pkts.to_float a.Dumbbell.avg_queue_pkts
       -. Units.Pkts.to_float b.Dumbbell.avg_queue_pkts)
     < 8.0);
  check_bool "both respond early" true
    (a.Dumbbell.early_responses > 0 && b.Dumbbell.early_responses > 0)

let ablation_tables_smoke () =
  let tables = Ablations.all Scale.Quick in
  check_int "six tables" 6 (List.length tables);
  List.iter
    (fun t ->
      check_bool "has rows" true (List.length t.Output.rows >= 2);
      List.iter
        (fun row -> check_int "row width" (List.length t.Output.header) (List.length row))
        t.Output.rows)
    tables

let ablation_decrease_direction () =
  (* Bigger early decrease -> smaller standing queue (monotone over the
     swept factors). *)
  match (Ablations.decrease_factor Scale.Quick).Output.rows with
  | [ r20; _; r50 ] ->
      let q row = float_of_string (List.nth row 1) in
      check_bool "f=0.5 queue below f=0.2 queue" true (q r50 < q r20)
  | _ -> Alcotest.fail "expected three rows"

(* The scheduler's pending set scales with links plus flows, not with
   packets in flight: each link keeps one delivery event pending however
   many packets are on its wire, and each flow one RTO event however
   many ACKs restarted it. *)
let pending_events_scale_with_links_and_flows () =
  let built = Dumbbell.build Dumbbell.default in
  let sim = Netsim.Topology.sim built.Dumbbell.topo in
  let links = List.length (Netsim.Topology.links built.Dumbbell.topo) in
  let flows =
    List.length built.Dumbbell.forward_flows + List.length built.Dumbbell.reverse
  in
  let peak = ref 0 in
  Test_support.ticker sim ~start:(Units.Time.s 0.0) (Units.Time.s 0.01)
    (fun () -> peak := max !peak (Sim_engine.Sim.pending sim));
  Sim_engine.Sim.run ~until:(Units.Time.s 5.0) sim;
  let bound = (2 * links) + (2 * flows) + 8 in
  check_bool
    (Printf.sprintf "peak %d pending <= %d (%d links, %d flows)" !peak bound
       links flows)
    true (!peak <= bound)

let suite =
  [
    ("pending events scale with links and flows", `Quick,
      pending_events_scale_with_links_and_flows);
    ("schemes names/ecn", `Quick, schemes_names_and_ecn);
    ("schemes disc kinds", `Quick, schemes_disc_kinds);
    ("dumbbell bdp rule", `Quick, bdp_rule);
    ("dumbbell uniform flows", `Quick, uniform_flows_helper);
    ("dumbbell realises rtt", `Quick, measured_rtt_matches_config);
    ("dumbbell result consistency", `Quick, dumbbell_result_consistency);
    ("headline qualitative result", `Quick, headline_qualitative_result);
    ("vegas zero loss", `Quick, vegas_zero_loss_smoke);
    ("output cells", `Quick, output_cells);
    ("output csv", `Quick, output_csv);
    ("output gnuplot", `Quick, output_gnuplot);
    ("scale parsing", `Quick, scale_parsing);
    ("registry covers paper", `Quick, registry_covers_paper);
    ("fig5 curve table", `Quick, fig5_is_the_curve);
    ("fig6 table structure", `Quick, fig6_structure);
    ("fig13a paper point", `Quick, fig13a_matches_paper_point);
    ("other aqm schemes smoke", `Quick, other_aqm_schemes_smoke);
    ("tuned scheme matches default", `Quick, tuned_scheme_matches_default);
    ("ablation tables smoke", `Quick, ablation_tables_smoke);
    ("ablation decrease direction", `Quick, ablation_decrease_direction);
    ("multibottleneck smoke", `Quick, multibneck_smoke);
    ("dynamic conservation", `Quick, dynamic_conservation);
    ("dynamic cbr yield/reclaim", `Quick, dynamic_cbr_yield_and_reclaim);
    ("schemes of_string", `Quick, schemes_of_string);
  ]
