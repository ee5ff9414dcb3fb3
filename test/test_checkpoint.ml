(* Live checkpoint/restore tests.

   Engine level: snapshot round-trips preserve state and sharing; an
   armed [max_events] budget keeps counting across a restore instead of
   restarting from zero (the crash-recovery accounting regression); the
   wall budget's 256-event sampling does not trip spuriously after the
   restore-time rebase; foreign and corrupt snapshot files are refused.

   Scenario level, the cut-point invariance oracle: interrupt a real
   dumbbell run at a *random* event count (via the event budget, which
   raises before popping, so the simulation is consistent), snapshot it,
   restore in-process, rehydrate, finish — the canonical rendering of
   the result must be byte-identical to the uninterrupted run's, under
   both schedulers, for a faults-style lossy PERT scenario, a fig6-style
   PERT+ECN/RED one (which exercises both extension-constructor
   rehydration paths) and a PERT mix with web sessions. *)

module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module D = Experiments.Dumbbell
module Schemes = Experiments.Schemes
module T = Netsim.Topology

let temp_snap () =
  let path = Filename.temp_file "pert-ckpt" ".snap" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

(* --- engine-level harness: a counting tick plus a one-shot save ---------- *)

type counter = { mutable count : int }

let tick_ev =
  Event.define_rec ~name:"test.ckpt-tick" (fun self (sim, c) ->
      c.count <- c.count + 1;
      Sim.after sim (Units.Time.s 0.001) (self (sim, c)))

let save_ev =
  Event.define ~name:"test.ckpt-save" (fun (sim, c, path) ->
      ignore (Sim.Snapshot.save sim ~world:c ~path))

(* One scenario, run twice: straight through its 1000-event budget, and
   via the snapshot written at t=0.4s. Restored, the budget must trip at
   the same absolute event count — a budget that restarted from zero
   would let the resumed run execute ~600 extra events and overshoot the
   straight run's counter. *)
let budget_continues_across_restore () =
  let path = temp_snap () in
  let arm sim c =
    Sim.at sim (Units.Time.s 0.0) (tick_ev (sim, c));
    Sim.at sim (Units.Time.s 0.4) (save_ev (sim, c, path));
    Sim.set_budget sim ~max_events:1000 ()
  in
  let straight_events, straight_count =
    let sim = Sim.create ~seed:7 ~scheduler:`Wheel () in
    let c = { count = 0 } in
    arm sim c;
    (* First pass writes the snapshot file too; throw it away so the
       second pass rewrites it from an identical universe. *)
    (try Sim.run ~until:(Units.Time.s 10.0) sim
     with Sim.Budget_exceeded _ -> ());
    (Sim.events_executed sim, c.count)
  in
  Alcotest.(check int) "straight run trips at max_events" 1000 straight_events;
  cleanup path;
  let sim = Sim.create ~seed:7 ~scheduler:`Wheel () in
  let c = { count = 0 } in
  arm sim c;
  (try Sim.run ~until:(Units.Time.s 10.0) sim
   with Sim.Budget_exceeded _ -> ());
  let sim2, (c2 : counter) = Sim.Snapshot.load ~path in
  cleanup path;
  let resumed_from = c2.count in
  Alcotest.(check bool)
    "restore rewinds to the snapshot point" true
    (resumed_from < straight_count);
  let tripped_at =
    match Sim.run ~until:(Units.Time.s 10.0) sim2 with
    | () -> Alcotest.fail "restored budget never tripped"
    | exception Sim.Budget_exceeded { events; exhausted; _ } ->
        Alcotest.(check string) "exhausted max_events" "max_events" exhausted;
        events
  in
  Alcotest.(check int)
    "budget continues from the pre-crash event count, not zero" 1000
    tripped_at;
  Alcotest.(check int)
    "resumed run reaches exactly the straight run's state" straight_count
    c2.count

(* An armed wall budget rebases its start at load time to the wall time
   already consumed. If the rebase were wrong (start left at zero or at
   the saving process's absolute clock), the first 256-event sample
   after the restore would see hours of phantom elapsed time and trip a
   3600 s budget instantly. *)
let wall_budget_no_skew_at_resume () =
  let path = temp_snap () in
  let sim = Sim.create ~seed:3 ~scheduler:`Heap () in
  let c = { count = 0 } in
  Sim.at sim (Units.Time.s 0.0) (tick_ev (sim, c));
  Sim.at sim (Units.Time.s 0.25) (save_ev (sim, c, path));
  Sim.set_budget sim ~max_events:1_000_000 ~max_wall:(Units.Time.s 3600.0) ();
  Sim.run ~until:(Units.Time.s 0.5) sim;
  let sim2, (c2 : counter) = Sim.Snapshot.load ~path in
  cleanup path;
  (match Sim.run ~until:(Units.Time.s 0.5) sim2 with
  | () -> ()
  | exception Sim.Budget_exceeded { exhausted; _ } ->
      Alcotest.failf "wall budget tripped spuriously after restore (%s)"
        exhausted);
  Alcotest.(check int) "resumed run reaches the straight run's state" c.count
    c2.count

let rejects_foreign_and_corrupt () =
  let path = temp_snap () in
  (* Not a snapshot at all. *)
  let oc = open_out_bin path in
  output_string oc "definitely not a snapshot\n";
  close_out oc;
  (match Sim.Snapshot.load ~path with
  | (_ : Sim.t * unit) -> Alcotest.fail "garbage file accepted"
  | exception Sim.Snapshot.Incompatible _ -> ());
  (* A real snapshot with a flipped payload byte must fail its checksum. *)
  let sim = Sim.create ~seed:9 ~scheduler:`Wheel () in
  let c = { count = 0 } in
  Sim.at sim (Units.Time.s 0.0) (tick_ev (sim, c));
  Sim.run ~until:(Units.Time.s 0.05) sim;
  ignore (Sim.Snapshot.save sim ~world:c ~path);
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let b = Bytes.of_string bytes in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Sim.Snapshot.load ~path with
  | (_ : Sim.t * counter) -> Alcotest.fail "corrupt payload accepted"
  | exception Sim.Snapshot.Incompatible msg ->
      Alcotest.(check bool) "checksum named in the diagnostic" true
        (String.length msg > 0));
  cleanup path

(* --- cut-point invariance ------------------------------------------------- *)

(* Phase tracker mirroring [Dumbbell.run]'s warmup/measure split, saved
   as the snapshot's world so a restore knows whether the stats reset
   already happened. *)
type phased = { built : D.built; mutable warm : bool }

let finish (w : phased) =
  let sim = T.sim w.built.D.topo in
  let config = w.built.D.config in
  if not w.warm then begin
    Sim.run ~until:(Units.Time.s config.D.warmup) sim;
    D.reset w.built;
    w.warm <- true
  end;
  Sim.run ~until:(Units.Time.s config.D.duration) sim;
  D.measure w.built

(* Same rehydration walk as the production restore path
   ([Dumbbell.run] via [Schemes.rehydrate_disc]/[rehydrate_cc]):
   extension constructors do not survive Marshal, so every queue
   discipline and congestion-control engine is re-tagged in place. *)
let rehydrate (w : phased) =
  List.iter
    (fun l -> Schemes.rehydrate_disc (Netsim.Link.disc l))
    (T.links w.built.D.topo);
  List.iter
    (fun f -> Schemes.rehydrate_cc (Tcpstack.Flow.cc f))
    (w.built.D.forward_flows @ w.built.D.reverse)

(* Canonical full-precision rendering: byte-equal iff results are equal. *)
let render (r : D.result) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%.17g %.17g %.17g %.17g %.17g %d %d %d %d %d"
    (Units.Pkts.to_float r.D.avg_queue_pkts)
    r.D.avg_queue_norm r.D.drop_rate r.D.utilization r.D.jain r.D.buffer_pkts
    r.D.marks r.D.early_responses r.D.loss_events r.D.audit_violations;
  Array.iter
    (fun g -> Printf.bprintf b " %.17g" (Units.Rate.to_bps g))
    r.D.per_flow_goodput;
  Buffer.contents b

let faults_like scheduler =
  D.uniform_flows
    {
      D.default with
      D.scheme = Schemes.Pert;
      bandwidth = 10e6;
      duration = 8.0;
      warmup = 2.0;
      fault = Some (Netsim.Fault.lossy (Units.Prob.v 0.01));
      seed = 11;
      scheduler;
    }
    ~n:4

let fig6_like scheduler =
  D.uniform_flows
    {
      D.default with
      D.scheme = Schemes.Pert_ecn;
      bandwidth = 10e6;
      duration = 8.0;
      warmup = 2.0;
      seed = 42;
      scheduler;
    }
    ~n:4

(* Web sessions: every think timer pending at the cut carries its
   session (rng, node pools, controller factory) as payload. *)
let web_like scheduler =
  D.uniform_flows
    {
      D.default with
      D.scheme = Schemes.Pert;
      bandwidth = 10e6;
      web_sessions = 40;
      duration = 8.0;
      warmup = 2.0;
      seed = 42;
      scheduler;
    }
    ~n:2

let straight config = render (finish { built = D.build config; warm = false })

(* The straight reference depends only on the config, not the cut; cache
   it so each QCheck case costs one interrupted run, not two full ones. *)
let straight_cached =
  let cache = Hashtbl.create 4 in
  fun key config ->
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        let r = straight config in
        Hashtbl.add cache key r;
        r

let cut_resume config ~cut =
  let w = { built = D.build config; warm = false } in
  let sim = T.sim w.built.D.topo in
  Sim.set_budget sim ~max_events:cut ();
  match finish w with
  | r ->
      (* Cut beyond the run's horizon: nothing to restore. *)
      render r
  | exception Sim.Budget_exceeded _ ->
      let path = temp_snap () in
      ignore (Sim.Snapshot.save sim ~world:w ~path);
      let sim2, (w2 : phased) = Sim.Snapshot.load ~path in
      cleanup path;
      rehydrate w2;
      Sim.clear_budget sim2;
      render (finish w2)

let cut_invariance name mk_config =
  QCheck.Test.make ~count:6
    ~name:(name ^ " is cut-point invariant (random checkpoint event count)")
    QCheck.(pair (int_range 500 60_000) bool)
    (fun (cut, wheel) ->
      let scheduler = if wheel then `Wheel else `Heap in
      let config = mk_config scheduler in
      let reference = straight_cached (name, wheel) config in
      String.equal reference (cut_resume config ~cut))

let suite =
  [
    ( "event budget continues across a restore",
      `Quick,
      budget_continues_across_restore );
    ( "wall budget sampling does not skew at resume",
      `Quick,
      wall_budget_no_skew_at_resume );
    ( "foreign and corrupt snapshots are refused",
      `Quick,
      rejects_foreign_and_corrupt );
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        cut_invariance "faults-lossy" faults_like;
        cut_invariance "fig6-pert-ecn" fig6_like;
        cut_invariance "web-sessions" web_like;
      ]
