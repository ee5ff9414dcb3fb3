module Sim = Sim_engine.Sim
module Stats = Sim_engine.Stats
module Link = Netsim.Link
module Flow = Tcpstack.Flow
module Trace = Predictors.Trace
module Predictor = Predictors.Predictor
module Transitions = Predictors.Transitions

type case = { id : int; ftp_fwd : int; ftp_rev : int; web_sessions : int }

(* Long-flow counts are kept low relative to capacity so the bottleneck
   queue actually oscillates (and occasionally drains): that is where the
   false positives the paper studies live. The full scale restores the
   paper's {50,100} flows x {100,500,1000} sessions. *)
let cases scale =
  let ftp, webs =
    Scale.pick scale
      ~quick:([ 2 ], [ 25; 50 ])
      ~default:([ 2; 3; 4 ], [ 50; 100 ])
      ~full:([ 25; 50 ], [ 100; 500; 1000 ])
  in
  let id = ref 0 in
  List.concat_map
    (fun f ->
      List.map
        (fun w ->
          incr id;
          { id = !id; ftp_fwd = f; ftp_rev = (f + 1) / 2; web_sessions = w })
        webs)
    ftp

let bandwidth scale = Scale.pick scale ~quick:10e6 ~default:20e6 ~full:100e6
let buffer_pkts scale = Scale.pick scale ~quick:60 ~default:100 ~full:750
let duration scale = Scale.pick scale ~quick:60.0 ~default:200.0 ~full:1000.0

(* The observed flow has a 60 ms path (threshold 65 ms in the paper);
   the rest spread between 20 and 120 ms. *)
let flow_rtts n =
  0.060
  :: List.init (max 0 (n - 1)) (fun i ->
         0.020 +. (0.100 *. float_of_int i /. float_of_int (max 1 (n - 1))))

(* Memoises the expensive SACK/droptail trace collection shared by
   fig2/fig3/fig4. Safe despite being toplevel state: keys fully determine
   the deterministic simulation that fills them, so a hit returns exactly
   what a fresh run would produce. Guarded because Registry.run_many fans
   figures out across domains (pertscan S1): fig2 and fig3 start together
   on a two-domain pool and ask for the same traces, so a key is claimed
   ([Collecting]) before its simulation runs, and a second asker waits
   for it rather than simulating it again, so each trace is simulated
   once at any [-j]. Snapshot-opaque for the same reason (pertscan S5):
   a checkpoint restored in a fresh process starts with the cache empty
   and simply refills it. *)
type slot = Collecting | Collected of Trace.t

let[@lint.allow "D3"] [@snapshot.opaque] cache :
    (Scale.t * int, slot) Hashtbl.t Parallel.Guard.t =
  Parallel.Guard.create (Hashtbl.create 16)

let collect_uncached scale case =
  let config =
    {
      Dumbbell.scheme = Schemes.Sack_droptail;
      bandwidth = bandwidth scale;
      rtt = 0.060;
      flow_rtts = flow_rtts case.ftp_fwd;
      reverse_flows = case.ftp_rev;
      web_sessions = case.web_sessions;
      buffer_pkts = Some (buffer_pkts scale);
      duration = duration scale;
      warmup = 0.0;
      start_window = (0.0, 5.0);
      delay_signal = `Rtt;
      fault = None;
      adversary = None;
      tcp = Dumbbell.default_tcp;
      audit = true;
      seed = 1000 + case.id;
      scheduler = `Wheel;
    }
  in
  let built = Dumbbell.build config in
  let observed =
    match built.Dumbbell.forward_flows with
    | f :: _ -> f
    | [] -> invalid_arg "Fig_predict.collect: no flows"
  in
  Flow.enable_rtt_trace observed;
  Flow.enable_loss_trace observed;
  Link.enable_drop_trace built.Dumbbell.bottleneck;
  Link.enable_queue_trace built.Dumbbell.bottleneck ();
  let sim = Netsim.Topology.sim built.Dumbbell.topo in
  Sim.run ~until:(Units.Time.s config.Dumbbell.duration) sim;
  let times, rtts, cwnds = Flow.rtt_trace observed in
  let limit =
    float_of_int
      (Link.disc built.Dumbbell.bottleneck).Netsim.Queue_disc.capacity_pkts
  in
  Trace.make ~times ~rtts ~cwnds
    ~flow_losses:(Flow.loss_times observed)
    ~queue_losses:(Link.drop_times built.Dumbbell.bottleneck)
    ~queue_occupancy:(fun t ->
      Link.queue_at built.Dumbbell.bottleneck (Units.Time.s t) /. limit)
    ()

(* The lock is never held across a simulation: claim the key, run
   unlocked, publish. A collection that raises gives its claim back, so a
   waiter wakes up, finds the key free and runs it itself. *)
let collect scale case =
  let key = (scale, case.id) in
  let found =
    Parallel.Guard.with_ cache (fun tbl ->
        let rec lookup () =
          match Hashtbl.find_opt tbl key with
          | Some (Collected trace) -> Some trace
          | Some Collecting ->
              Parallel.Guard.wait cache;
              lookup ()
          | None ->
              Hashtbl.replace tbl key Collecting;
              None
        in
        lookup ())
  in
  match found with
  | Some trace -> trace
  | None ->
      Fun.protect
        ~finally:(fun () ->
          Parallel.Guard.with_ cache (fun tbl ->
              match Hashtbl.find_opt tbl key with
              | Some Collecting -> Hashtbl.remove tbl key
              | Some (Collected _) | None -> ()))
        (fun () ->
          let trace = collect_uncached scale case in
          Parallel.Guard.with_ cache (fun tbl ->
              Hashtbl.replace tbl key (Collected trace));
          trace)

let observed_threshold = 0.005 (* 65 ms on a 60 ms path *)

let fig2 scale =
  let predictor = Predictor.inst_threshold ~offset:observed_threshold () in
  let rows =
    List.map
      (fun case ->
        let trace = collect scale case in
        let states = predictor.Predictor.predict trace in
        let frac losses =
          Transitions.efficiency
            (Transitions.count ~times:trace.Trace.times ~states ~losses ())
        in
        [
          Printf.sprintf "case%d" case.id;
          Output.cell_i (case.ftp_fwd + case.ftp_rev);
          Output.cell_i case.web_sessions;
          Output.cell_f (frac trace.Trace.flow_losses);
          Output.cell_f (frac trace.Trace.queue_losses);
        ])
      (cases scale)
  in
  {
    Output.title =
      "Fig 2: P(high-RTT -> loss), losses measured in-flow vs at the queue";
    header = [ "case"; "ftp"; "web"; "flow-level"; "queue-level" ];
    rows;
  }

let fig3 scale =
  let predictors = Predictor.standard_set ~buffer_pkts:(buffer_pkts scale) in
  let traces = List.map (collect scale) (cases scale) in
  let rows =
    List.map
      (fun p ->
        let eff = Stats.Acc.create ()
        and fp = Stats.Acc.create ()
        and fn = Stats.Acc.create () in
        List.iter
          (fun trace ->
            let states = p.Predictor.predict trace in
            let c =
              Transitions.count ~times:trace.Trace.times ~states
                ~losses:trace.Trace.queue_losses ()
            in
            Stats.Acc.add eff (Transitions.efficiency c);
            Stats.Acc.add fp (Transitions.false_positive_rate c);
            Stats.Acc.add fn (Transitions.false_negative_rate c))
          traces;
        [
          p.Predictor.name;
          Output.cell_f (Stats.Acc.mean eff);
          Output.cell_f (Stats.Acc.mean fp);
          Output.cell_f (Stats.Acc.mean fn);
        ])
      predictors
  in
  {
    Output.title =
      "Fig 3: prediction efficiency / false positives / false negatives \
       (queue-level losses, mean over cases)";
    header = [ "predictor"; "efficiency"; "false-pos"; "false-neg" ];
    rows;
  }

let fig4 scale =
  let predictor = Predictor.ewma ~alpha:0.99 ~offset:observed_threshold () in
  let hist = Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:10 in
  List.iter
    (fun case ->
      let trace = collect scale case in
      let states = predictor.Predictor.predict trace in
      let fp_times =
        Transitions.false_positive_times ~times:trace.Trace.times ~states
          ~losses:trace.Trace.queue_losses ()
      in
      Array.iter
        (fun t -> Stats.Histogram.add hist (trace.Trace.queue_occupancy t))
        fp_times)
    (cases scale);
  let pdf = Stats.Histogram.pdf hist in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i p ->
           [
             Output.cell_f ~digits:2 (Stats.Histogram.bin_center hist i);
             Output.cell_f p;
           ])
         pdf)
  in
  {
    Output.title =
      "Fig 4: PDF of normalised queue length at srtt_0.99 false positives";
    header = [ "queue-frac"; "pdf" ];
    rows;
  }
