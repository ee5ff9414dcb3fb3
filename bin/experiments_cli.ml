(* Command-line driver for the paper-reproduction experiments:
   `experiments_cli list`, `experiments_cli run fig6 table1 --scale quick`,
   `experiments_cli all --csv out/ --resume --deadline 300`; one dumbbell
   run with `experiments_cli sim --scheme pert-pi --flows 8`; and any
   other topology with `experiments_cli scenario examples/parking_lot.scn`. *)

open Cmdliner

let scale_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Experiments.Scale.of_string s) in
  Arg.conv (parse, fun fmt s -> Format.fprintf fmt "%s" (Experiments.Scale.to_string s))

let scale_arg =
  Arg.(
    value
    & opt scale_conv Experiments.Scale.Default
    & info [ "s"; "scale" ] ~docv:"SCALE"
        ~doc:
          "Experiment size: smoke (sub-second, CI), quick, default or full \
           (paper parameters).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent simulations on $(docv) domains (0 = one per \
           recommended core). Output is bit-identical for every $(docv).")

let resume_arg =
  Arg.(
    value
    & opt ~vopt:(Some ".pert-store") (some string) None
    & info [ "resume" ] ~docv:"DIR"
        ~doc:
          "Checkpoint completed simulation cells into $(docv) (default \
           $(b,.pert-store)) and skip cells already present — a rerun \
           after a crash or SIGKILL recomputes only what is missing. \
           Printed tables are byte-identical with or without the store.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Per-simulation wall-clock budget in seconds; a cell that \
           exceeds it renders as TIMEOUT instead of hanging the sweep.")

let max_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Per-simulation event budget; a cell that exceeds it renders \
           as TIMEOUT instead of spinning forever.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-run a crashed simulation cell up to $(docv) times \
           (deterministic seeded backoff) before rendering it FAILED.")

let seed_arg =
  Arg.(
    value & opt int 2007
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Base random seed for seed-parameterised experiment families \
           (e.g. the adversarial attack schedules) and retry backoff \
           jitter. Different seeds are different random universes; the \
           same seed replays bit-for-bit.")

let scheduler_arg =
  let parse = function
    | "wheel" -> Ok `Wheel
    | "heap" -> Ok `Heap
    | s -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print fmt s =
    Format.fprintf fmt "%s" (match s with `Wheel -> "wheel" | `Heap -> "heap")
  in
  let sched_conv = Arg.conv (parse, print) in
  Arg.(
    value & opt sched_conv `Wheel
    & info [ "scheduler" ] ~docv:"NAME"
        ~doc:
          "Event scheduler: $(b,wheel) (calendar queue, default) or \
           $(b,heap) (binary heap). Tables are byte-identical either \
           way; the flag exists so CI can prove it. fig2, fig3, fig4, \
           fig12 and dynamic-cbr do not read it and always run the \
           wheel.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Write live mid-run snapshots of every uncached simulation cell \
           into $(docv) (one file per cell, atomic replace). A rerun with \
           the same flags resumes each interrupted cell from its latest \
           snapshot instead of restarting it; the finished tables are \
           byte-identical either way. Cell snapshots are deleted on \
           success.")

let checkpoint_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-events" ] ~docv:"N"
        ~doc:
          "Snapshot cadence in executed events (with $(b,--checkpoint); \
           default 2000000 when no cadence is given).")

let checkpoint_wall_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "checkpoint-wall" ] ~docv:"SEC"
        ~doc:
          "Snapshot cadence in wall-clock seconds (with \
           $(b,--checkpoint)); purely an I/O pacing knob — it never \
           affects simulation results.")

let resolve_jobs = function
  | 0 -> Parallel.default_jobs ()
  | n when n < 0 -> 1
  | n -> n

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_csv dir id tables =
  mkdir_p dir;
  List.iteri
    (fun i table ->
      let path =
        Filename.concat dir
          (if i = 0 then id ^ ".csv" else Printf.sprintf "%s-%d.csv" id i)
      in
      Experiments.Store.write_atomic ~path (Experiments.Output.to_csv table))
    tables

let run_experiments ids scale csv jobs resume deadline max_events retries seed
    scheduler checkpoint ck_events ck_wall =
  let fmt = Format.std_formatter in
  let missing = List.filter (fun id -> Experiments.Registry.find id = None) ids in
  if missing <> [] then
    `Error (false, "unknown experiment(s): " ^ String.concat ", " missing)
  else begin
    let jobs = resolve_jobs jobs in
    let store = Option.map (fun dir -> Experiments.Store.open_ ~dir) resume in
    let checkpoint =
      Option.map
        (fun dir ->
          Experiments.Runner.checkpoint_policy ?every_events:ck_events
            ?every_wall:(Option.map Units.Time.s ck_wall)
            dir)
        checkpoint
    in
    let ctx =
      Experiments.Runner.ctx ~jobs ?store ~retries
        ?deadline:(Option.map Units.Time.s deadline)
        ?max_events ?checkpoint ~seed ~scheduler ()
    in
    let exps = List.filter_map Experiments.Registry.find ids in
    (* Registry-level fan-out: run everything first (in parallel when
       jobs > 1), then print in request order. *)
    let results = Experiments.Registry.run_many ~ctx scale exps in
    let failures = ref 0 in
    List.iter
      (fun (e, tables) ->
        Format.fprintf fmt "# %s (%s) at scale %s@." e.Experiments.Registry.id
          e.Experiments.Registry.paper_ref
          (Experiments.Scale.to_string scale);
        Experiments.Output.print_all fmt tables;
        List.iter
          (fun t -> failures := !failures + Experiments.Output.failure_count t)
          tables;
        Option.iter
          (fun dir -> write_csv dir e.Experiments.Registry.id tables)
          csv)
      results;
    if !failures > 0 then begin
      Printf.eprintf
        "pert-experiments: %d cell(s) FAILED or TIMEOUT — tables above are \
         partial\n"
        !failures;
      `Ok 3
    end
    else `Ok 0
  end

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-8s %-14s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.paper_ref e.Experiments.Registry.summary)
      Experiments.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible tables/figures.")
    Term.(const run $ const ())

let ids_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"ID" ~doc:"Experiment ids (see $(b,list)).")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run selected experiments and print their tables.")
    Term.(
      ret
        (const run_experiments $ ids_arg $ scale_arg $ csv_arg $ jobs_arg
       $ resume_arg $ deadline_arg $ max_events_arg $ retries_arg
       $ seed_arg $ scheduler_arg $ checkpoint_arg $ checkpoint_events_arg
       $ checkpoint_wall_arg))

let all_cmd =
  let run scale csv jobs resume deadline max_events retries seed scheduler
      checkpoint ck_events ck_wall =
    run_experiments
      (Experiments.Registry.ids ())
      scale csv jobs resume deadline max_events retries seed scheduler
      checkpoint ck_events ck_wall
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in paper order.")
    Term.(
      ret
        (const run $ scale_arg $ csv_arg $ jobs_arg $ resume_arg
       $ deadline_arg $ max_events_arg $ retries_arg $ seed_arg
       $ scheduler_arg $ checkpoint_arg $ checkpoint_events_arg
       $ checkpoint_wall_arg))

(* --- sim: one dumbbell simulation ---------------------------------------- *)

(* A single dumbbell run: pick a scheme and a configuration, get the
   canonical rendering of its result. It is also the crash-recovery test
   vehicle: run it with --checkpoint, SIGKILL it mid-flight, rerun the
   same command line — it resumes from the snapshot and the --out
   rendering is byte-identical to an uninterrupted run's. *)

let sim_scheme_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Experiments.Schemes.of_string s)
  in
  Arg.conv
    (parse, fun fmt s -> Format.fprintf fmt "%s" (Experiments.Schemes.name s))

let sim_scheme_arg =
  Arg.(
    value
    & opt sim_scheme_conv Experiments.Schemes.Pert
    & info [ "scheme" ] ~docv:"NAME"
        ~doc:
          "Congestion control / queue combination: pert, pert-ecn, \
           sack-droptail, sack-red-ecn, vegas, pert-pi, sack-pi-ecn, \
           pert-rem, pert-avq, sack-rem-ecn, sack-avq-ecn. Aliases: sack, \
           droptail and newreno for sack-droptail; red, pi, rem and avq \
           for SACK over that ECN-marking router queue. The PI schemes \
           target a 3 ms queueing delay.")

let sim_bandwidth_arg =
  Arg.(
    value & opt float 40.0
    & info [ "bandwidth" ] ~docv:"MBPS" ~doc:"Bottleneck bandwidth in Mbit/s.")

let sim_rtt_arg =
  Arg.(
    value & opt float 60.0
    & info [ "rtt" ] ~docv:"MS" ~doc:"Two-way propagation delay in ms.")

let sim_flows_arg =
  Arg.(value & opt int 16 & info [ "flows" ] ~doc:"Forward long-lived flows.")

let sim_reverse_arg =
  Arg.(value & opt int 0 & info [ "reverse" ] ~doc:"Reverse long-lived flows.")

let sim_web_arg = Arg.(value & opt int 0 & info [ "web" ] ~doc:"Web sessions.")

let sim_duration_arg =
  Arg.(value & opt float 60.0 & info [ "duration" ] ~doc:"Simulated seconds.")

let sim_warmup_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "warmup" ] ~docv:"SEC"
        ~doc:
          "Start of the measurement window (default: duration/4). Flows \
           start at random times in [0, min 5 SEC), so every flow has \
           started when measurement begins.")

let sim_buffer_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "buffer" ] ~docv:"PKTS"
        ~doc:
          "Bottleneck buffer in packets (default: one BDP, and at least \
           twice the forward flows).")

let sim_loss_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Random non-congestive loss probability on the bottleneck (the \
           fault suite's wireless-style impairment).")

let sim_seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Random seed.")

let sim_owd_arg =
  Arg.(
    value & flag
    & info [ "owd" ]
        ~doc:"Drive PERT from forward one-way delays instead of RTTs.")

let sim_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write an ns-2-style packet trace of the bottleneck link (both \
           directions) to $(docv). Tracing does not change the result. \
           Not with $(b,--checkpoint) or $(b,--restore).")

let sim_checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Snapshot the live simulation to $(docv) (atomic replace). When \
           $(docv) already exists and was written by this binary, the run \
           resumes from it instead of starting over.")

let sim_restore_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "restore" ] ~docv:"FILE"
        ~doc:
          "Resume from the snapshot $(docv) (must exist) and finish the \
           run. Mutually exclusive with $(b,--checkpoint).")

let sim_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the result as a canonical key=value rendering to $(docv) \
           (atomic replace) instead of stdout — the byte-comparison \
           artifact of the crash-recovery check.")

(* Canonical full-precision rendering: equal results give equal bytes. *)
let render_result (r : Experiments.Dumbbell.result) =
  let b = Buffer.create 512 in
  let f fmt = Printf.bprintf b fmt in
  f "avg_queue_pkts %.17g\n" (Units.Pkts.to_float r.avg_queue_pkts);
  f "avg_queue_norm %.17g\n" r.avg_queue_norm;
  f "drop_rate %.17g\n" r.drop_rate;
  f "utilization %.17g\n" r.utilization;
  f "jain %.17g\n" r.jain;
  f "buffer_pkts %d\n" r.buffer_pkts;
  f "marks %d\n" r.marks;
  f "early_responses %d\n" r.early_responses;
  f "loss_events %d\n" r.loss_events;
  f "audit_violations %d\n" r.audit_violations;
  Array.iteri
    (fun i g -> f "flow%d_goodput_bps %.17g\n" i (Units.Rate.to_bps g))
    r.per_flow_goodput;
  Buffer.contents b

(* Build, attach the tracer to both bottleneck directions, then run the
   same phases as an untraced run. The announcement goes to stderr, so
   stdout stays the rendering. *)
let run_traced config path =
  let built = Experiments.Dumbbell.build config in
  let tracer =
    Netsim.Tracer.create
      [
        built.Experiments.Dumbbell.bottleneck;
        built.Experiments.Dumbbell.reverse_bneck;
      ]
  in
  let result = Experiments.Dumbbell.run_phases built in
  mkdir_p (Filename.dirname path);
  Netsim.Tracer.save tracer ~path;
  Printf.eprintf "trace: %d events -> %s\n" (Netsim.Tracer.events tracer) path;
  result

let run_sim scheme bandwidth rtt flows reverse web duration warmup buffer loss
    seed owd scheduler trace checkpoint ck_events ck_wall restore out =
  match (restore, checkpoint) with
  | Some _, Some _ ->
      `Error (true, "--restore and --checkpoint are mutually exclusive")
  | Some _, None | None, Some _ when Option.is_some trace ->
      `Error (true, "--trace cannot be combined with --checkpoint or --restore")
  | Some path, None when not (Sys.file_exists path) ->
      `Error (false, Printf.sprintf "--restore %s: no such snapshot" path)
  | _
    when List.exists
           (fun w -> w < 0.0 || w >= duration)
           (Option.to_list warmup) ->
      (* a warm-up that reaches the end leaves nothing to measure *)
      `Error (true, "--warmup must be at least 0 and less than --duration")
  | restore, checkpoint ->
      let warmup = Option.value warmup ~default:(duration /. 4.0) in
      let config =
        Experiments.Dumbbell.uniform_flows
          {
            Experiments.Dumbbell.default with
            scheme;
            bandwidth = bandwidth *. 1e6;
            rtt = rtt /. 1000.0;
            reverse_flows = reverse;
            web_sessions = web;
            buffer_pkts = buffer;
            duration;
            warmup;
            (* The library's fixed 5 s start window would leave flows of
               a short run unstarted when measurement begins; end it at
               the warm-up instead. *)
            start_window = (0.0, Float.min 5.0 warmup);
            delay_signal = (if owd then `Owd else `Rtt);
            fault =
              Option.map (fun p -> Netsim.Fault.lossy (Units.Prob.v p)) loss;
            seed;
            scheduler;
          }
          ~n:flows
      in
      let mk_ckpt path =
        (* Same default cadence rule as [Runner.checkpoint_policy]. *)
        let ck_events =
          match (ck_events, ck_wall) with
          | None, None -> Some 2_000_000
          | _ -> ck_events
        in
        {
          Experiments.Runner.snap_path = path;
          snap_every_events = ck_events;
          snap_every_wall = Option.map Units.Time.s ck_wall;
        }
      in
      let ckpt =
        match (restore, checkpoint) with
        | Some path, _ -> Some (mk_ckpt path)
        | None, Some path ->
            mkdir_p (Filename.dirname path);
            Some (mk_ckpt path)
        | None, None -> None
      in
      let result =
        match trace with
        | Some path -> run_traced config path
        | None -> Experiments.Dumbbell.run ?ckpt config
      in
      let text = render_result result in
      (match out with
      | Some path ->
          mkdir_p (Filename.dirname path);
          Experiments.Store.write_atomic ~path text
      | None -> print_string text);
      `Ok 0

let sim_cmd =
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Run one dumbbell simulation and print the canonical rendering of \
          its result, with live checkpoint/restore (the crash-recovery \
          test vehicle) or an ns-2-style packet trace.")
    Term.(
      ret
        (const run_sim $ sim_scheme_arg $ sim_bandwidth_arg $ sim_rtt_arg
       $ sim_flows_arg $ sim_reverse_arg $ sim_web_arg $ sim_duration_arg
       $ sim_warmup_arg $ sim_buffer_arg $ sim_loss_arg $ sim_seed_arg
       $ sim_owd_arg $ scheduler_arg $ sim_trace_arg $ sim_checkpoint_arg
       $ checkpoint_events_arg $ checkpoint_wall_arg $ sim_restore_arg
       $ sim_out_arg))

(* --- scenario: a topology described in a file ---------------------------- *)

let scenario_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:
          "Scenario file; the language is documented in \
           lib/scenario/scenario.mli (example: examples/parking_lot.scn).")

let run_scenario path =
  let source = In_channel.with_open_text path In_channel.input_all in
  match Scenario.parse_and_run source with
  | Ok report ->
      Scenario.pp_report Format.std_formatter report;
      `Ok 0
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)

let scenario_cmd =
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a scenario file — any topology of nodes and links with \
          long-lived flows, web sessions and CBR sources — and print each \
          flow's goodput and each link's utilisation, queue and drops.")
    Term.(ret (const run_scenario $ scenario_file_arg))

let main =
  let doc = "Reproduce the tables and figures of the PERT paper (SIGCOMM 2007)" in
  Cmd.group
    (Cmd.info "pert-experiments" ~doc)
    [ list_cmd; run_cmd; all_cmd; sim_cmd; scenario_cmd ]

let () = exit (Cmd.eval' main)
