type experiment = {
  id : string;
  paper_ref : string;
  summary : string;
  run : ctx:Runner.ctx -> Scale.t -> Output.table list;
}

let one f ~ctx scale = [ f ?ctx:(Some ctx) scale ]

(* Single-run or closed-form tables: no independent tasks to spread. *)
let seq f ~ctx:_ scale = [ f scale ]

let all =
  [
    {
      id = "fig2";
      paper_ref = "Figure 2";
      summary = "high-RTT->loss correlation, flow-level vs queue-level";
      run = seq Fig_predict.fig2;
    };
    {
      id = "fig3";
      paper_ref = "Figure 3";
      summary = "efficiency/false-pos/false-neg of nine predictors";
      run = seq Fig_predict.fig3;
    };
    {
      id = "fig4";
      paper_ref = "Figure 4";
      summary = "queue-occupancy PDF at srtt_0.99 false positives";
      run = seq Fig_predict.fig4;
    };
    {
      id = "fig5";
      paper_ref = "Figure 5";
      summary = "PERT probabilistic response curve";
      run = (fun ~ctx:_ _ -> [ Sweeps.fig5 ]);
    };
    {
      id = "fig6";
      paper_ref = "Figure 6";
      summary = "bottleneck bandwidth sweep, four schemes";
      run = one Sweeps.fig6;
    };
    {
      id = "fig7";
      paper_ref = "Figure 7";
      summary = "end-to-end RTT sweep, four schemes";
      run = one Sweeps.fig7;
    };
    {
      id = "fig8";
      paper_ref = "Figure 8";
      summary = "long-lived flow count sweep, four schemes";
      run = one Sweeps.fig8;
    };
    {
      id = "fig9";
      paper_ref = "Figure 9";
      summary = "web-session sweep, four schemes";
      run = one Sweeps.fig9;
    };
    {
      id = "table1";
      paper_ref = "Table 1";
      summary = "heterogeneous RTTs with web background";
      run = one Sweeps.table1;
    };
    {
      id = "fig11";
      paper_ref = "Figures 10-11";
      summary = "six-router multiple-bottleneck chain";
      run = one Multibneck.fig11;
    };
    {
      id = "fig12";
      paper_ref = "Figure 12";
      summary = "cohort arrivals/departures, per-cohort throughput";
      run = one Dynamic.fig12;
    };
    {
      id = "fig13a";
      paper_ref = "Figure 13(a)";
      summary = "minimum stable sampling interval vs flow count";
      run = (fun ~ctx:_ _ -> [ Fig_fluid.fig13a ]);
    };
    {
      id = "fig13";
      paper_ref = "Figure 13(b-d)";
      summary = "fluid-model trajectories across the stability boundary";
      run = seq Fig_fluid.fig13_trajectories;
    };
    {
      id = "fig14";
      paper_ref = "Figure 14";
      summary = "PERT/PI vs router PI with ECN, RTT sweep";
      run = one Fig_pi.fig14;
    };
    {
      id = "other-aqm";
      paper_ref = "Section 8 direction";
      summary = "end-host REM vs router REM/AVQ with ECN, RTT sweep";
      run = one Fig_pi.other_aqm;
    };
    {
      id = "stability";
      paper_ref = "Section 5.4";
      summary = "PERT vs router-RED stability boundaries (closed form)";
      run = (fun ~ctx:_ _ -> [ Fig_fluid.stability_region ]);
    };
    {
      id = "dynamic-cbr";
      paper_ref = "Section 4.7 (companion)";
      summary = "non-responsive CBR on/off transient, four schemes";
      run = one Dynamic.dynamic_cbr;
    };
    {
      id = "ablations";
      paper_ref = "DESIGN.md (beyond the paper)";
      summary = "decrease factor / EWMA weight / curve shape / RTT limiter";
      run =
        (fun ~ctx scale ->
          [
            Ablations.decrease_factor ~ctx scale;
            Ablations.ewma_weight ~ctx scale;
            Ablations.curve_shape ~ctx scale;
            Ablations.rtt_limiter ~ctx scale;
          ]);
    };
    {
      id = "seeds";
      paper_ref = "methodology";
      summary = "five-seed mean +- sd of the reference comparison";
      run = (fun ~ctx scale -> [ Ablations.seed_sensitivity ~ctx scale ]);
    };
    {
      id = "reverse";
      paper_ref = "Section 7 discussion";
      summary = "reverse-path congestion: RTT vs one-way-delay signal";
      run = (fun ~ctx scale -> [ Ablations.reverse_traffic ~ctx scale ]);
    };
    {
      id = "faults";
      paper_ref = "Sections 5.3/7 (beyond the paper)";
      summary = "PERT vs SACK vs PERT+ECN under loss, flapping, ECN bleaching";
      run = (fun ~ctx scale -> Faults.all ~ctx scale);
    };
    {
      id = "adversarial";
      paper_ref = "Section 7 (beyond the paper)";
      summary = "hardened TCP vs on-path attacker: RST/ACK storms, window clamping";
      run = (fun ~ctx scale -> Adversarial.all ~ctx scale);
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all

let run_many ~ctx scale exps =
  match exps with
  | [] -> []
  | [ e ] -> [ (e, e.run ~ctx scale) ]
  | _ :: _ when ctx.Runner.jobs <= 1 ->
      List.map (fun e -> (e, e.run ~ctx scale)) exps
  | _ :: _ ->
      (* Registry-level fan-out: one task per experiment on [jobs]
         worker domains while this domain waits, each experiment run
         sequentially inside (coarse granularity beats nested pools).
         The child ctx keeps the store, budgets and retry policy. *)
      let inner = Runner.sequential ctx in
      Parallel.map ~jobs:ctx.Runner.jobs
        (fun e -> (e, e.run ~ctx:inner scale))
        exps
