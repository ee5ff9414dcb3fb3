(* Tests for the network substrate: packets, queues (DropTail, RED, PI),
   links, nodes, topology/routing. *)

open Netsim
module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ts = Units.Time.s
let thunk = Test_support.thunk
let tf = Units.Time.to_s

let mk_data ?(ecn = false) ?(seq = 0) arena =
  Packet.data arena ~flow:0 ~src:0 ~dst:1 ~seq ~ecn ~now:0.0 ()

(* Offer a fresh data packet to a discipline through the ~size/~ecn
   interface the link uses (rejected packets are deliberately leaked —
   test arenas are throwaway). *)
let enq ?(ecn = false) ?(seq = 0) q arena ~now =
  let pkt = mk_data ~ecn ~seq arena in
  q.Queue_disc.enqueue ~now ~size:(Packet.size arena pkt) ~ecn pkt

(* --- Packet arena -------------------------------------------------------- *)

let packet_arena_ids () =
  let a = Packet.create_arena () in
  let p = mk_data a and q = mk_data a in
  check_bool "distinct ids" true (Packet.id a p <> Packet.id a q);
  check_int "data size" (Packet.mss + Packet.header_size) (Packet.size a p);
  check_bool "is data" true (Packet.kind a p = Packet.Data);
  check_int "seq" 0 (Packet.seq a p);
  let ack =
    Packet.ack a ~flow:0 ~src:1 ~dst:0 ~ack:5 ~sack:[ (7, 9); (11, 12) ]
      ~ecn_echo:true ~ts_echo:1.5 ~window:65535 ~now:2.0 ()
  in
  check_int "ack size" Packet.header_size (Packet.size a ack);
  check_bool "ack kind" true (Packet.kind a ack = Packet.Ack);
  check_int "cumulative ack" 5 (Packet.seq a ack);
  check_int "window field" 65535 (Packet.window a ack);
  check_bool "ecn echo" true (Packet.ecn_echo a ack);
  check_float "ts echo" 1.5 (Packet.ts_echo a ack);
  Alcotest.(check (list (pair int int)))
    "sack blocks" [ (7, 9); (11, 12) ] (Packet.sack a ack);
  check_int "live population" 3 (Packet.live a)

let packet_arena_reuse () =
  let a = Packet.create_arena () in
  let p = mk_data ~seq:1 a in
  let q = mk_data ~seq:2 a in
  let p_id = Packet.id a p in
  check_int "two live" 2 (Packet.live a);
  Packet.free a p;
  check_int "one live" 1 (Packet.live a);
  check_bool "freed handle dead" false (Packet.is_live a p);
  check_bool "other handle alive" true (Packet.is_live a q);
  (* Double free is only detectable while the slot is still dead: once
     recycled, the stale handle aliases the new occupant (handles carry
     no generation — the ownership discipline in lib/net exists
     precisely so stale handles are never retained). *)
  Alcotest.check_raises "double free"
    (Invalid_argument "Packet.free: packet already freed (double free)")
    (fun () -> Packet.free a p);
  (* The freed slot is recycled, and the recycled packet's fields are
     fully re-initialised — nothing of the old occupant shows through. *)
  let r = mk_data ~ecn:true ~seq:77 a in
  check_int "slot reused" (p : Packet.t :> int) (r : Packet.t :> int);
  check_int "fresh seq" 77 (Packet.seq a r);
  check_bool "fresh ecn" true (Packet.ecn_capable a r);
  check_bool "no stale mark" false (Packet.ecn_marked a r);
  check_bool "fresh id" true (Packet.id a r <> p_id);
  check_int "untouched neighbour" 2 (Packet.seq a q)

let packet_arena_copy () =
  let a = Packet.create_arena () in
  let p = mk_data ~ecn:true ~seq:9 a in
  Packet.set_ecn_marked a p true;
  let c = Packet.copy a p in
  check_bool "distinct slots" true ((p : Packet.t :> int) <> (c :> int));
  check_int "same wire id" (Packet.id a p) (Packet.id a c);
  check_int "same seq" 9 (Packet.seq a c);
  check_bool "mark copied" true (Packet.ecn_marked a c);
  (* The copy has its own storage: mutating one leaves the other alone. *)
  Packet.set_ecn_marked a c false;
  check_bool "original unaffected" true (Packet.ecn_marked a p);
  Packet.free a p;
  check_bool "copy outlives original" true (Packet.is_live a c)

let packet_arena_growth () =
  let a = Packet.create_arena ~capacity:4 () in
  let pkts = Array.init 100 (fun i -> mk_data ~seq:i a) in
  check_int "all live" 100 (Packet.live a);
  check_bool "capacity grew" true (Packet.capacity a >= 100);
  (* Fields written before a growth survive the plane reallocation. *)
  Array.iteri (fun i p -> check_int "seq preserved" i (Packet.seq a p)) pkts;
  Array.iter (fun p -> Packet.free a p) pkts;
  check_int "all freed" 0 (Packet.live a)

(* --- Droptail ------------------------------------------------------------ *)

let droptail_tail_drop () =
  let q = Droptail.create ~limit_pkts:3 in
  let a = Packet.create_arena () in
  for i = 0 to 2 do
    match enq ~seq:i q a ~now:0.0 with
    | Queue_disc.Accept -> ()
    | _ -> Alcotest.fail "should accept under limit"
  done;
  (match enq ~seq:3 q a ~now:0.0 with
  | Queue_disc.Reject -> ()
  | _ -> Alcotest.fail "should tail-drop at limit");
  check_int "pkt length" 3 (Queue_disc.pkt_length q);
  check_int "byte length" (3 * Packet.data_size) (Queue_disc.byte_length q);
  (* FIFO order out *)
  (match q.Queue_disc.dequeue ~now:0.0 with
  | p -> check_int "fifo head" 0 (Packet.seq a p)
  | exception Queue_disc.Empty -> Alcotest.fail "dequeue");
  check_int "length after dequeue" 2 (Queue_disc.pkt_length q)

let droptail_validation () =
  Alcotest.check_raises "bad limit"
    (Invalid_argument "Droptail.create: limit must be positive") (fun () ->
      ignore (Droptail.create ~limit_pkts:0))

(* --- RED ------------------------------------------------------------------ *)

let red_fixture ?(ecn = true) ?(limit = 100) () =
  let params =
    {
      Red.wq = 0.5 (* fast-moving average to make tests direct *);
      min_th = 5.0;
      max_th = 15.0;
      max_p = Units.Prob.v 0.1;
      gentle = true;
      adaptive = false;
      ecn;
    }
  in
  Red.create ~rng:(Rng.create 3) ~params ~capacity_pps:1000.0 ~limit_pkts:limit

let red_accepts_when_idle () =
  let q = red_fixture () in
  let a = Packet.create_arena () in
  for i = 0 to 3 do
    match enq ~seq:i q a ~now:(0.001 *. float_of_int i) with
    | Queue_disc.Accept -> ()
    | _ -> Alcotest.fail "below min_th must accept"
  done;
  check_bool "avg tracked" true (Red.avg_queue q > 0.0)

let red_marks_ecn_between_thresholds () =
  let q = red_fixture () in
  let a = Packet.create_arena () in
  (* Build the queue (and average) well past min_th. *)
  let marks = ref 0 and drops = ref 0 in
  for i = 0 to 99 do
    match enq ~ecn:true ~seq:i q a ~now:0.0 with
    | Queue_disc.Accept -> ()
    | Queue_disc.Accept_marked -> incr marks
    | Queue_disc.Reject -> incr drops
  done;
  check_bool "some ECN marks" true (!marks > 0);
  (* ECN-capable packets are marked, never probabilistically dropped, until
     the hard region; with avg beyond 2*max_th they are dropped. *)
  check_bool "hard drops once avg > 2 max_th" true (!drops > 0)

let red_drops_non_ecn () =
  let q = red_fixture ~ecn:false () in
  let a = Packet.create_arena () in
  let drops = ref 0 and marks = ref 0 in
  for i = 0 to 99 do
    match enq ~seq:i q a ~now:0.0 with
    | Queue_disc.Accept -> ()
    | Queue_disc.Accept_marked -> incr marks
    | Queue_disc.Reject -> incr drops
  done;
  check_int "never marks without ecn" 0 !marks;
  check_bool "drops instead" true (!drops > 0)

let red_idle_decay () =
  let q = red_fixture () in
  let a = Packet.create_arena () in
  for i = 0 to 9 do
    ignore (enq ~seq:i q a ~now:0.0)
  done;
  let avg_busy = Red.avg_queue q in
  (* Drain fully, then let it idle for a long time: the next arrival sees
     a decayed average. *)
  let rec drain () =
    match q.Queue_disc.dequeue ~now:0.1 with
    | _ -> drain ()
    | exception Queue_disc.Empty -> ()
  in
  drain ();
  ignore (enq ~seq:100 q a ~now:10.0);
  check_bool "average decayed during idle" true
    (Red.avg_queue q < avg_busy /. 2.0)

let red_auto_params () =
  (* 1000 pps * 5 ms / 2 = 2.5 is below the 5-packet floor. *)
  let p = Red.auto_params ~capacity_pps:1000.0 ~limit_pkts:200 () in
  check_float "min_th floored at 5" 5.0 p.Red.min_th;
  check_float "max_th = 3 min_th" 15.0 p.Red.max_th;
  let p1 = Red.auto_params ~capacity_pps:10_000.0 ~limit_pkts:400 () in
  check_float "min_th = c*d/2 above the floor" 25.0 p1.Red.min_th;
  check_bool "wq small" true (p.Red.wq < 0.01);
  let p2 = Red.auto_params ~capacity_pps:10.0 ~limit_pkts:8 () in
  check_bool "min_th clamped into buffer" true (p2.Red.min_th <= 2.0)

let red_adaptive_moves_max_p () =
  let params =
    { (Red.auto_params ~capacity_pps:1000.0 ~limit_pkts:100 ()) with
      Red.adaptive = true; wq = 0.5 }
  in
  let q =
    Red.create ~rng:(Rng.create 4) ~params ~capacity_pps:1000.0 ~limit_pkts:100
  in
  let a = Packet.create_arena () in
  let initial = Units.Prob.to_float (Red.current_max_p q) in
  (* Keep the average pinned high across several adaptation intervals. *)
  for i = 0 to 200 do
    ignore (enq ~ecn:true ~seq:i q a ~now:(0.1 *. float_of_int i))
  done;
  check_bool "max_p increased under persistent congestion" true
    (Units.Prob.to_float (Red.current_max_p q) > initial)

let red_wrong_disc () =
  let q = Droptail.create ~limit_pkts:5 in
  Alcotest.check_raises "not a RED queue"
    (Invalid_argument "Red: not a RED discipline") (fun () ->
      ignore (Red.avg_queue q))

let red_count_correction_bounds_gaps () =
  (* With the average pinned between the thresholds, the count-corrected
     probability pa = pb / (1 - count*pb) guarantees a mark at least every
     ceil(1/pb) arrivals — the de-clustering property RED is built on. *)
  let params =
    { Red.wq = 0.05; min_th = 2.0; max_th = 12.0; max_p = Units.Prob.v 0.5;
      gentle = false; adaptive = false; ecn = true }
  in
  let q =
    Red.create ~rng:(Rng.create 11) ~params ~capacity_pps:1000.0
      ~limit_pkts:100
  in
  let a = Packet.create_arena () in
  (* Pin the instantaneous queue at 7 (every accepted arrival is matched
     by a departure): the average converges to 7, mid-band, where
     pb = 0.5 * (7-2)/10 = 0.25 and the gap bound is 1/pb = 4. *)
  for i = 0 to 6 do
    ignore (enq ~ecn:true ~seq:i q a ~now:0.0)
  done;
  for i = 7 to 2006 do
    (match enq ~ecn:true ~seq:i q a ~now:0.001 with
    | Queue_disc.Accept | Queue_disc.Accept_marked ->
        ignore (q.Queue_disc.dequeue ~now:0.001)
    | Queue_disc.Reject -> ())
  done;
  let gap = ref 0 and max_gap = ref 0 and marks = ref 0 in
  for i = 0 to 1999 do
    (match enq ~ecn:true ~seq:(6000 + i) q a ~now:0.002 with
    | Queue_disc.Accept_marked ->
        incr marks;
        if !gap > !max_gap then max_gap := !gap;
        gap := 0;
        ignore (q.Queue_disc.dequeue ~now:0.002)
    | Queue_disc.Accept ->
        incr gap;
        ignore (q.Queue_disc.dequeue ~now:0.002)
    | Queue_disc.Reject -> ())
  done;
  check_bool "plenty of marks" true (!marks > 200);
  (* pb >= 0.2 in the settled band -> gap bound 1/pb = 5, plus slack *)
  check_bool "count correction bounds the gap" true (!max_gap <= 8)

(* --- PI queue --------------------------------------------------------------- *)

let pi_fixture () =
  let params =
    { Pi_queue.a = 0.01; b = 0.005; q_ref = 5.0; sample_interval = ts 0.01;
      ecn = true }
  in
  Pi_queue.create ~rng:(Rng.create 5) ~params ~limit_pkts:100

let pi_probability_rises_and_falls () =
  let q = pi_fixture () in
  let a = Packet.create_arena () in
  (* Queue pinned at 20 > q_ref: probability should integrate upward. *)
  for i = 0 to 19 do
    ignore (enq ~ecn:true ~seq:i q a ~now:0.0)
  done;
  ignore (enq ~ecn:true ~seq:20 q a ~now:1.0);
  let p_high = Units.Prob.to_float (Pi_queue.probability q) in
  check_bool "p grew above 0" true (p_high > 0.0);
  (* Drain to zero and wait: probability should decay back down. *)
  let rec drain () =
    match q.Queue_disc.dequeue ~now:1.0 with
    | _ -> drain ()
    | exception Queue_disc.Empty -> ()
  in
  drain ();
  ignore (enq ~ecn:true ~seq:21 q a ~now:5.0);
  check_bool "p decayed" true
    (Units.Prob.to_float (Pi_queue.probability q) < p_high)

let pi_marks_ecn () =
  let q = pi_fixture () in
  let a = Packet.create_arena () in
  (* Standing queue of ~20 (> q_ref = 5, well below the 100 limit): every
     accepted packet is matched by a departure. *)
  for i = 0 to 19 do
    ignore (enq ~ecn:true ~seq:i q a ~now:0.0)
  done;
  let marks = ref 0 and drops = ref 0 in
  for i = 20 to 519 do
    (match enq ~ecn:true ~seq:i q a ~now:(0.01 *. float_of_int i) with
    | Queue_disc.Accept_marked ->
        incr marks;
        ignore (q.Queue_disc.dequeue ~now:(0.01 *. float_of_int i))
    | Queue_disc.Accept ->
        ignore (q.Queue_disc.dequeue ~now:(0.01 *. float_of_int i))
    | Queue_disc.Reject -> incr drops)
  done;
  check_bool "ECN marks under sustained excess" true (!marks > 0);
  check_int "no drops while marking" 0 !drops

(* --- REM ---------------------------------------------------------------------- *)

let rem_fixture () =
  let params =
    { Netsim.Rem.gamma = 0.01; alpha = 0.5; b_ref = 5.0; phi = 1.01;
      sample_interval = ts 0.01; ecn = true }
  in
  Rem.create ~rng:(Rng.create 7) ~params ~capacity_pps:100.0 ~limit_pkts:200

let rem_price_tracks_backlog () =
  let q = rem_fixture () in
  let a = Packet.create_arena () in
  check_float "initial price" 0.0 (Rem.price q);
  (* hold a backlog of 30 > b_ref across many intervals *)
  for i = 0 to 29 do
    ignore (enq ~ecn:true ~seq:i q a ~now:0.0)
  done;
  ignore (enq ~ecn:true ~seq:100 q a ~now:2.0);
  let high = Rem.price q in
  check_bool "price grew" true (high > 0.0);
  check_bool "marking probability in (0,1)" true
    (Units.Prob.to_float (Rem.mark_probability q) > 0.0
    && Units.Prob.to_float (Rem.mark_probability q) < 1.0);
  (* drain below the target: price must fall back toward zero *)
  let rec drain () =
    match q.Queue_disc.dequeue ~now:2.0 with
    | _ -> drain ()
    | exception Queue_disc.Empty -> ()
  in
  drain ();
  ignore (enq ~ecn:true ~seq:101 q a ~now:10.0);
  check_bool "price decayed" true (Rem.price q < high)

let rem_marks_under_price () =
  let q = rem_fixture () in
  let a = Packet.create_arena () in
  let marks = ref 0 and drops = ref 0 in
  for i = 0 to 999 do
    (match enq ~ecn:true ~seq:i q a ~now:(0.005 *. float_of_int i) with
    | Queue_disc.Accept_marked -> incr marks
    | Queue_disc.Reject -> incr drops
    | Queue_disc.Accept -> ());
    (* slow service keeps backlog above target *)
    if i mod 2 = 0 then
      ignore (q.Queue_disc.dequeue ~now:(0.005 *. float_of_int i))
  done;
  check_bool "REM marks" true (!marks > 0)

let rem_validation () =
  Alcotest.check_raises "phi must exceed 1"
    (Invalid_argument "Rem.create: phi must exceed 1") (fun () ->
      ignore
        (Rem.create ~rng:(Rng.create 1)
           ~params:
             { (Rem.default_params ~capacity_pps:100.0) with Rem.phi = 1.0 }
           ~capacity_pps:100.0 ~limit_pkts:10))

(* --- AVQ ---------------------------------------------------------------------- *)

let avq_marks_on_virtual_overflow () =
  let params =
    { (Avq.default_params ()) with Netsim.Avq.virtual_buffer = 5.0 }
  in
  let q = Avq.create ~params ~capacity_pps:100.0 ~limit_pkts:1000 in
  let a = Packet.create_arena () in
  (* a burst far above the virtual capacity must overflow the virtual
     queue and mark *)
  let marks = ref 0 in
  for i = 0 to 49 do
    match enq ~ecn:true ~seq:i q a ~now:0.001 with
    | Queue_disc.Accept_marked -> incr marks
    | Queue_disc.Accept | Queue_disc.Reject -> ()
  done;
  check_bool "burst marked" true (!marks > 30);
  (* virtual capacity stays within [0, C] *)
  let c = Avq.virtual_capacity q in
  check_bool "virtual capacity bounded" true (c >= 0.0 && c <= 100.0)

let avq_adapts_capacity () =
  let q =
    Avq.create ~params:(Avq.default_params ()) ~capacity_pps:100.0
      ~limit_pkts:1000
  in
  let a = Packet.create_arena () in
  (* light load (10 pkt/s against gamma*C = 98): c_tilde pins at C *)
  for i = 0 to 99 do
    ignore (enq ~ecn:true ~seq:i q a ~now:(0.1 *. float_of_int i));
    ignore (q.Queue_disc.dequeue ~now:(0.1 *. float_of_int i))
  done;
  check_float "pins at C under light load" 100.0 (Avq.virtual_capacity q);
  (* overload (1000 pkt/s): c_tilde must fall *)
  for i = 0 to 999 do
    ignore
      (enq ~ecn:true ~seq:(1000 + i) q a
         ~now:(10.0 +. (0.001 *. float_of_int i)));
    ignore (q.Queue_disc.dequeue ~now:(10.0 +. (0.001 *. float_of_int i)))
  done;
  check_bool "falls under overload" true (Avq.virtual_capacity q < 100.0)

(* --- Link --------------------------------------------------------------------- *)

let link_fixture ?(bandwidth = Units.Rate.bps 1e6) ?(delay = ts 0.01)
    ?(limit = 50) ?service sim arena =
  Link.create ?service sim ~arena ~name:"l" ~bandwidth ~delay
    ~disc:(Droptail.create ~limit_pkts:limit)

let link_timing_exact () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture sim a in
  check_bool "batched by default" true (Link.service link = Link.Batched);
  let arrival = ref 0.0 in
  Link.set_deliver link (fun _ -> arrival := Sim.now sim);
  Sim.at sim (ts 0.0) (thunk (fun () -> Link.send link (mk_data a)));
  Sim.run sim;
  (* 1040 bytes at 1 Mbps = 8.32 ms serialisation + 10 ms propagation. *)
  check_float "delivery time" (0.00832 +. 0.01) !arrival

let link_serialises_back_to_back () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture sim a in
  let arrivals = ref [] in
  Link.set_deliver link (fun p ->
      arrivals := (Packet.seq a p, Sim.now sim) :: !arrivals);
  Sim.at sim (ts 0.0) (thunk (fun () ->
      Link.send link (mk_data ~seq:0 a);
      Link.send link (mk_data ~seq:1 a)));
  Sim.run sim;
  match List.rev !arrivals with
  | [ (0, t0); (1, t1) ] ->
      check_float "second is one serialisation later" 0.00832 (t1 -. t0)
  | _ -> Alcotest.fail "expected two arrivals in order"

let link_max_queue_watermark () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture sim a in
  Link.set_deliver link ignore;
  Sim.at sim (ts 0.0) (thunk (fun () ->
      for i = 0 to 9 do
        Link.send link (mk_data ~seq:i a)
      done));
  Sim.run sim;
  (* first packet starts transmitting immediately; nine buffered at peak *)
  check_int "high watermark" 9 (Link.max_queue_pkts link);
  Link.reset_stats link;
  check_int "watermark resets to current" 0 (Link.max_queue_pkts link)

let link_counters_and_reset () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture ~limit:2 sim a in
  Link.set_deliver link ignore;
  Sim.at sim (ts 0.0) (thunk (fun () ->
      for i = 0 to 4 do
        Link.send link (mk_data ~seq:i a)
      done));
  Sim.run sim;
  check_int "arrivals" 5 (Link.arrivals link);
  (* limit 2: the first is transmitted immediately, two buffered, two dropped *)
  check_int "drops" 2 (Link.drops link);
  check_float "drop rate" 0.4 (Link.drop_rate link);
  check_bool "utilization positive" true (Link.utilization link > 0.0);
  Link.reset_stats link;
  check_int "drops reset" 0 (Link.drops link);
  check_int "arrivals reset" 0 (Link.arrivals link)

let link_drop_trace () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture ~limit:1 sim a in
  Link.set_deliver link ignore;
  Link.enable_drop_trace link;
  Sim.at sim (ts 0.5) (thunk (fun () ->
      for i = 0 to 3 do
        Link.send link (mk_data ~seq:i a)
      done));
  Sim.run sim;
  let drops = Link.drop_times link in
  check_int "two drops traced" 2 (Array.length drops);
  Array.iter (fun t -> check_float "at send time" 0.5 t) drops

let link_queue_trace_lookup () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture sim a in
  Link.set_deliver link ignore;
  Link.enable_queue_trace link ~interval:(ts 0.1) ();
  Sim.at sim (ts 0.45) (thunk (fun () ->
      for i = 0 to 9 do
        Link.send link (mk_data ~seq:i a)
      done));
  Sim.run ~until:(ts 1.0) sim;
  check_float "queue before burst" 0.0 (Link.queue_at link (ts 0.2));
  check_bool "queue after burst" true (Link.queue_at link (ts 0.55) > 0.0)

let link_jitter_reorders () =
  let sim = Sim.create ~seed:9 () in
  let a = Packet.create_arena () in
  let link =
    Link.create ~jitter:(ts 0.02) sim ~arena:a ~name:"j"
      ~bandwidth:(Units.Rate.bps 1e8) ~delay:(ts 0.001)
      ~disc:(Droptail.create ~limit_pkts:100)
  in
  let order = ref [] in
  Link.set_deliver link (fun p -> order := Packet.seq a p :: !order);
  Sim.at sim (ts 0.0) (thunk (fun () ->
      for i = 0 to 49 do
        Link.send link (mk_data ~seq:i a)
      done));
  Sim.run sim;
  let arrived = List.rev !order in
  check_int "all delivered" 50 (List.length arrived);
  check_bool "some reordering happened" true
    (arrived <> List.sort compare arrived);
  Alcotest.(check (list int))
    "no loss, no duplication"
    (List.init 50 (fun i -> i))
    (List.sort compare arrived)

(* The batched transmitter is an optimisation, not a model change: the
   same arrival pattern must produce identical delivery times, counters
   and conservation under either service. Staggered sends with idle gaps
   exercise restart-after-idle; a tight limit exercises the drop path. *)
let link_eager_matches_batched () =
  let run service =
    let sim = Sim.create ~seed:5 () in
    let a = Packet.create_arena () in
    let link = link_fixture ~service ~limit:3 sim a in
    let deliveries = ref [] in
    Link.set_deliver link (fun p ->
        deliveries := (Packet.seq a p, Sim.now sim) :: !deliveries;
        Packet.free a p);
    let send_burst t0 n base =
      Sim.at sim (ts t0) (thunk (fun () ->
          for i = 0 to n - 1 do
            Link.send link (mk_data ~seq:(base + i) a)
          done))
    in
    send_burst 0.0 6 0;  (* overflows the 3-packet buffer *)
    send_burst 0.1 2 100;  (* restart after a fully idle period *)
    send_burst 0.1005 1 200;  (* lands mid-service *)
    Sim.run sim;
    (match Link.conservation_error link with
    | None -> ()
    | Some e -> Alcotest.fail e);
    ( List.rev !deliveries,
      Link.arrivals link,
      Link.drops link,
      Link.max_queue_pkts link,
      Packet.live a )
  in
  let d_e, a_e, dr_e, mq_e, live_e = run Link.Eager in
  let d_b, a_b, dr_b, mq_b, live_b = run Link.Batched in
  Alcotest.(check (list (pair int (float 1e-12))))
    "identical deliveries" d_e d_b;
  check_int "arrivals" a_e a_b;
  check_int "drops" dr_e dr_b;
  check_int "max queue" mq_e mq_b;
  check_int "no leaked packets (eager)" 0 live_e;
  check_int "no leaked packets (batched)" 0 live_b

(* The same equivalence with per-packet jitter, which reorders
   deliveries: both services draw the jitter in transmission order, so
   they must deliver the same (seq, time) sequence, in time order. *)
let link_eager_matches_batched_jittered () =
  let run service =
    let sim = Sim.create ~seed:5 () in
    let a = Packet.create_arena () in
    let link =
      Link.create ~jitter:(ts 0.02) ~service sim ~arena:a ~name:"j"
        ~bandwidth:(Units.Rate.bps 1e7) ~delay:(ts 0.001)
        ~disc:(Droptail.create ~limit_pkts:100)
    in
    let deliveries = ref [] in
    Link.set_deliver link (fun p ->
        deliveries := (Packet.seq a p, Sim.now sim) :: !deliveries;
        Packet.free a p);
    let send_burst t0 n base =
      Sim.at sim (ts t0) (thunk (fun () ->
          for i = 0 to n - 1 do
            Link.send link (mk_data ~seq:(base + i) a)
          done))
    in
    send_burst 0.0 40 0;
    send_burst 0.01 10 100;  (* lands mid-service *)
    send_burst 0.2 5 200;  (* restart after a fully idle period *)
    Sim.run sim;
    (match Link.conservation_error link with
    | None -> ()
    | Some e -> Alcotest.fail e);
    (List.rev !deliveries, Packet.live a)
  in
  let d_e, live_e = run Link.Eager in
  let d_b, live_b = run Link.Batched in
  Alcotest.(check (list (pair int (float 1e-12))))
    "identical deliveries" d_e d_b;
  check_int "all delivered" 55 (List.length d_b);
  let seqs = List.map fst d_b and times = List.map snd d_b in
  check_bool "jitter reordered" true (seqs <> List.sort compare seqs);
  check_bool "times nondecreasing" true (times = List.sort compare times);
  check_int "no leaked packets (eager)" 0 live_e;
  check_int "no leaked packets (batched)" 0 live_b

let rem_default_params_sane () =
  let p = Rem.default_params ~capacity_pps:1000.0 in
  check_bool "phi > 1" true (p.Rem.phi > 1.0);
  check_bool "positive interval" true (tf p.Rem.sample_interval > 0.0)

(* --- Node / Topology ------------------------------------------------------------ *)

let topology_routing_chain () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.arena topo in
  let n = Array.init 4 (fun _ -> Topology.add_node topo) in
  let disc () = Droptail.create ~limit_pkts:100 in
  for i = 0 to 2 do
    ignore
      (Topology.add_duplex topo ~a:n.(i) ~b:n.(i + 1)
         ~bandwidth:(Units.Rate.bps 1e7) ~delay:(ts 0.001)
         ~disc_ab:(disc ()) ~disc_ba:(disc ()))
  done;
  Topology.compute_routes topo;
  check_int "node count" 4 (Topology.node_count topo);
  check_int "links" 6 (List.length (Topology.links topo));
  (* End-to-end delivery via intermediate hops. *)
  let got = ref None in
  Node.attach_agent n.(3) ~flow:7 (fun p -> got := Some (Packet.seq a p));
  let pkt =
    Packet.data a ~flow:7 ~src:0 ~dst:3 ~seq:42 ~ecn:false ~now:0.0 ()
  in
  Sim.at sim (ts 0.0) (thunk (fun () -> Topology.inject topo n.(0) pkt));
  Sim.run sim;
  Alcotest.(check (option int)) "delivered across 3 hops" (Some 42) !got;
  (* the node freed the packet after the agent saw it *)
  check_int "no live packets after delivery" 0 (Packet.live a)

let topology_shortest_path () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  (* Triangle with an extra 2-hop detour: BFS must pick the direct edge. *)
  let a = Topology.add_node topo
  and b = Topology.add_node topo
  and c = Topology.add_node topo in
  let disc () = Droptail.create ~limit_pkts:10 in
  let direct =
    Topology.add_link topo ~src:a ~dst:c ~bandwidth:(Units.Rate.bps 1e6)
      ~delay:(ts 0.001) ~disc:(disc ())
  in
  ignore
    (Topology.add_link topo ~src:a ~dst:b ~bandwidth:(Units.Rate.bps 1e6)
       ~delay:(ts 0.001) ~disc:(disc ()));
  ignore
    (Topology.add_link topo ~src:b ~dst:c ~bandwidth:(Units.Rate.bps 1e6)
       ~delay:(ts 0.001) ~disc:(disc ()));
  Topology.compute_routes topo;
  (match Node.route_to a (Node.id c) with
  | Some l ->
      Alcotest.(check string) "direct link chosen" (Link.name direct)
        (Link.name l)
  | None -> Alcotest.fail "no route");
  check_bool "no route back (directed)" true
    (Node.route_to c (Node.id a) = None)

let node_agent_demux () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let arena = Topology.arena topo in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  ignore
    (Topology.add_duplex topo ~a ~b ~bandwidth:(Units.Rate.bps 1e7)
       ~delay:(ts 0.001)
       ~disc_ab:(Droptail.create ~limit_pkts:10)
       ~disc_ba:(Droptail.create ~limit_pkts:10));
  Topology.compute_routes topo;
  let hits_1 = ref 0 and hits_2 = ref 0 in
  Node.attach_agent b ~flow:1 (fun _ -> incr hits_1);
  Node.attach_agent b ~flow:2 (fun _ -> incr hits_2);
  let data flow seq =
    Packet.data arena ~flow ~src:0 ~dst:1 ~seq ~ecn:false ~now:0.0 ()
  in
  Sim.at sim (ts 0.0) (thunk (fun () ->
      Node.receive a (data 1 0);
      Node.receive a (data 2 0);
      Node.receive a (data 3 0)));
  Sim.run sim;
  check_int "flow 1" 1 !hits_1;
  check_int "flow 2" 1 !hits_2;
  (* agentless flow-3 delivery was freed too, not leaked *)
  check_int "all packets freed" 0 (Packet.live arena);
  Node.detach_agent b ~flow:1;
  Sim.at sim (ts (Sim.now sim +. 0.001)) (thunk (fun () ->
      Node.receive a (data 1 1)));
  Sim.run sim;
  check_int "detached agent silent" 1 !hits_1

(* The node looks agents up in an int-keyed table. Deliveries that
   alternate between two flows (one of them negative, as CBR ids are)
   must each reach their own handler; a detached flow's handler must
   never run again, and a re-attached flow must reach its new handler;
   every locally addressed packet is freed. Local delivery is
   synchronous, so no simulation is needed. The CBR id is -1, the first
   one [Cbr.fresh_cbr_id] hands out. *)
let node_agent_dispatch () =
  let arena = Packet.create_arena () in
  let node = Node.create ~arena ~id:0 in
  let deliver flow seq =
    Node.receive node
      (Packet.data arena ~flow ~src:1 ~dst:0 ~seq ~ecn:false ~now:0.0 ())
  in
  let log = ref [] in
  let record tag p = log := (tag, Packet.seq arena p) :: !log in
  Node.attach_agent node ~flow:1 (record "one");
  Node.attach_agent node ~flow:(-1) (record "cbr");
  for i = 0 to 3 do
    deliver (-1) i;
    deliver 1 i
  done;
  deliver 1 4;
  deliver 1 5;
  Alcotest.(check (list (pair string int)))
    "alternating flows reach their own handlers"
    [
      ("cbr", 0); ("one", 0); ("cbr", 1); ("one", 1); ("cbr", 2); ("one", 2);
      ("cbr", 3); ("one", 3); ("one", 4); ("one", 5);
    ]
    (List.rev !log);
  check_int "all delivered packets freed" 0 (Packet.live arena);
  (* Flow 1 was the last flow delivered; detaching it silences it. *)
  log := [];
  Node.detach_agent node ~flow:1;
  deliver 1 6;
  check_int "detached flow is silent" 0 (List.length !log);
  check_int "packet to a detached flow is freed" 0 (Packet.live arena);
  (* Detach a flow right after one of its packets, too. *)
  deliver (-1) 7;
  Node.detach_agent node ~flow:(-1);
  deliver (-1) 8;
  Alcotest.(check (list (pair string int)))
    "detached CBR flow is silent" [ ("cbr", 7) ] (List.rev !log);
  (* Re-attaching installs the new handler, never the old one. *)
  log := [];
  Node.attach_agent node ~flow:1 (record "again");
  deliver 1 9;
  deliver 1 10;
  Alcotest.(check (list (pair string int)))
    "re-attached flow uses its new handler"
    [ ("again", 9); ("again", 10) ]
    (List.rev !log);
  (* A handler that detaches its own flow, as a closing connection
     does: the next packet of that flow finds no handler. *)
  log := [];
  Node.attach_agent node ~flow:2 (fun p ->
      record "closing" p;
      Node.detach_agent node ~flow:2);
  deliver 2 11;
  deliver 2 12;
  Alcotest.(check (list (pair string int)))
    "handler that detached itself runs once" [ ("closing", 11) ]
    (List.rev !log);
  check_int "nothing leaked" 0 (Packet.live arena)

(* [Queue_disc.pkt_length]/[byte_length] read the discipline's FIFO. For
   each of the five disciplines, configured to accept everything, push
   past the ring's initial 64 slots (a grow) and then drain and refill so
   the ring wraps; the lengths must track a model of the queue, with
   data and ACK sizes mixed, and packets must leave in FIFO order. *)
let queue_disc_lengths_track_fifo () =
  let accept_all =
    [
      ("droptail", fun () -> Droptail.create ~limit_pkts:1000);
      ( "red",
        fun () ->
          Red.create ~rng:(Rng.create 1)
            ~params:
              {
                Red.wq = 0.002;
                min_th = 1e6;
                max_th = 2e6;
                max_p = Units.Prob.v 0.1;
                gentle = false;
                adaptive = false;
                ecn = false;
              }
            ~capacity_pps:1000.0 ~limit_pkts:1000 );
      ( "pi",
        fun () ->
          Pi_queue.create ~rng:(Rng.create 1)
            ~params:
              {
                Pi_queue.a = 0.0;
                b = 0.0;
                q_ref = 0.0;
                sample_interval = ts 0.01;
                ecn = false;
              }
            ~limit_pkts:1000 );
      ( "rem",
        fun () ->
          Rem.create ~rng:(Rng.create 1)
            ~params:
              { (Rem.default_params ~capacity_pps:1000.0) with Rem.gamma = 0.0 }
            ~capacity_pps:1000.0 ~limit_pkts:1000 );
      ( "avq",
        fun () ->
          Avq.create
            ~params:{ (Avq.default_params ()) with Avq.virtual_buffer = 1e9 }
            ~capacity_pps:1000.0 ~limit_pkts:1000 );
    ]
  in
  List.iter
    (fun (name, make) ->
      let q = make () in
      let a = Packet.create_arena () in
      let model = Queue.create () in
      let now = ref 0.0 in
      let push i =
        let pkt =
          if i mod 3 = 0 then
            Packet.ack a ~flow:0 ~src:1 ~dst:0 ~ack:i ~sack:[] ~ecn_echo:false
              ~ts_echo:0.0 ~window:65535 ~now:!now ()
          else mk_data ~seq:i a
        in
        let size = Packet.size a pkt in
        now := !now +. 0.001;
        (match q.Queue_disc.enqueue ~now:!now ~size ~ecn:false pkt with
        | Queue_disc.Accept -> Queue.add (i, size) model
        | _ -> Alcotest.failf "%s rejected packet %d" name i)
      in
      let pop () =
        now := !now +. 0.001;
        let pkt = q.Queue_disc.dequeue ~now:!now in
        let i, _ = Queue.take model in
        check_int (name ^ " fifo order") i (Packet.seq a pkt);
        Packet.free a pkt
      in
      let check what =
        check_int
          (Printf.sprintf "%s pkt_length %s" name what)
          (Queue.length model) (Queue_disc.pkt_length q);
        check_int
          (Printf.sprintf "%s byte_length %s" name what)
          (Queue.fold (fun acc (_, s) -> acc + s) 0 model)
          (Queue_disc.byte_length q)
      in
      check "empty";
      for i = 0 to 99 do
        push i
      done;
      check "after growing past 64";
      for _ = 1 to 60 do
        pop ()
      done;
      check "after draining";
      for i = 100 to 189 do
        push i
      done;
      check "after wrapping";
      while not (Queue.is_empty model) do
        pop ()
      done;
      check "drained";
      check_int (name ^ " no leaked packets") 0 (Packet.live a))
    accept_all

(* Eager and batched service agree on a link whose packets come in
   three sizes (data, pure ACK, persist probe), interleaved, so that
   every packet's transmission time depends on its own size. *)
let link_eager_matches_batched_mixed_sizes () =
  let run service =
    let sim = Sim.create ~seed:5 () in
    let a = Packet.create_arena () in
    let link = link_fixture ~service ~limit:20 sim a in
    let deliveries = ref [] in
    Link.set_deliver link (fun p ->
        deliveries :=
          (Packet.seq a p, Packet.size a p, Sim.now sim) :: !deliveries;
        Packet.free a p);
    let mixed i =
      match i mod 5 with
      | 0 | 2 -> mk_data ~seq:i a
      | 1 | 3 ->
          Packet.ack a ~flow:0 ~src:1 ~dst:0 ~ack:i ~sack:[] ~ecn_echo:false
            ~ts_echo:0.0 ~window:65535 ~now:0.0 ()
      | _ -> Packet.probe a ~flow:0 ~src:0 ~dst:1 ~seq:i ~now:0.0 ()
    in
    let send_burst t0 n base =
      Sim.at sim (ts t0) (thunk (fun () ->
          for i = 0 to n - 1 do
            Link.send link (mixed (base + i))
          done))
    in
    send_burst 0.0 12 0;
    send_burst 0.02 7 100;  (* lands mid-service *)
    send_burst 0.3 9 200;  (* restart after a fully idle period *)
    Sim.run sim;
    (match Link.conservation_error link with
    | None -> ()
    | Some e -> Alcotest.fail e);
    (List.rev !deliveries, Packet.live a)
  in
  let d_e, live_e = run Link.Eager in
  let d_b, live_b = run Link.Batched in
  Alcotest.(check (list (triple int int (float 0.0))))
    "identical deliveries" d_e d_b;
  check_int "all delivered" 28 (List.length d_b);
  check_int "three sizes on the wire" 3
    (List.length (List.sort_uniq compare (List.map (fun (_, s, _) -> s) d_b)));
  check_int "no leaked packets (eager)" 0 live_e;
  check_int "no leaked packets (batched)" 0 live_b

(* --- Tracer -------------------------------------------------------------- *)

let tracer_records_lifecycle () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture ~limit:2 sim a in
  Link.set_deliver link (fun p -> Packet.free a p);
  let tracer = Tracer.create [ link ] in
  Sim.at sim (ts 0.0) (thunk (fun () ->
      for i = 0 to 4 do
        Link.send link (mk_data ~seq:i a)
      done));
  Sim.run sim;
  (* 3 accepted (1 transmitting + 2 buffered), 2 dropped:
     3 enqueues + 3 dequeues + 3 receives + 2 drops *)
  check_int "event count" 11 (Tracer.events tracer);
  let trace = Tracer.to_string tracer in
  let count c =
    String.fold_left
      (fun (at_bol, n) ch ->
        if at_bol && ch = c then (false, n + 1) else (ch = '\n', n))
      (true, 0) trace
    |> snd
  in
  check_int "enqueues" 3 (count '+');
  check_int "dequeues" 3 (count '-');
  check_int "receives" 3 (count 'r');
  check_int "drops" 2 (count 'd');
  check_bool "ns-2 fields present" true
    (String.length trace > 0
    && String.split_on_char ' ' (List.hd (String.split_on_char '\n' trace))
       |> List.length = 12)

let tracer_marks_flags () =
  let sim = Sim.create () in
  let a = Packet.create_arena () in
  let link = link_fixture sim a in
  Link.set_deliver link ignore;
  let tracer = Tracer.create [ link ] in
  let pkt =
    Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq:0 ~ecn:false ~retransmit:true
      ~now:0.0 ()
  in
  Sim.at sim (ts 0.0) (thunk (fun () -> Link.send link pkt));
  Sim.run sim;
  check_bool "retransmit flag traced" true
    (let trace = Tracer.to_string tracer in
     String.length trace > 0
     &&
     let has_sub sub s =
       let n = String.length sub and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has_sub "-R--" trace)

let suite =
  [
    ("packet arena ids/accessors", `Quick, packet_arena_ids);
    ("packet arena free-list reuse", `Quick, packet_arena_reuse);
    ("packet arena copy", `Quick, packet_arena_copy);
    ("packet arena growth", `Quick, packet_arena_growth);
    ("droptail tail drop", `Quick, droptail_tail_drop);
    ("droptail validation", `Quick, droptail_validation);
    ("red accepts when idle", `Quick, red_accepts_when_idle);
    ("red marks ecn", `Quick, red_marks_ecn_between_thresholds);
    ("red drops non-ecn", `Quick, red_drops_non_ecn);
    ("red idle decay", `Quick, red_idle_decay);
    ("red auto params", `Quick, red_auto_params);
    ("red adaptive max_p", `Quick, red_adaptive_moves_max_p);
    ("red wrong discipline", `Quick, red_wrong_disc);
    ("red count correction", `Quick, red_count_correction_bounds_gaps);
    ("pi probability rises/falls", `Quick, pi_probability_rises_and_falls);
    ("rem price tracks backlog", `Quick, rem_price_tracks_backlog);
    ("rem marks under price", `Quick, rem_marks_under_price);
    ("rem validation", `Quick, rem_validation);
    ("avq marks on virtual overflow", `Quick, avq_marks_on_virtual_overflow);
    ("avq adapts capacity", `Quick, avq_adapts_capacity);
    ("pi marks ecn", `Quick, pi_marks_ecn);
    ("link timing exact", `Quick, link_timing_exact);
    ("link serialisation", `Quick, link_serialises_back_to_back);
    ("link max-queue watermark", `Quick, link_max_queue_watermark);
    ("link counters/reset", `Quick, link_counters_and_reset);
    ("link drop trace", `Quick, link_drop_trace);
    ("link queue trace", `Quick, link_queue_trace_lookup);
    ("link eager matches batched", `Quick, link_eager_matches_batched);
    ("link eager matches batched, jittered", `Quick,
      link_eager_matches_batched_jittered);
    ("topology routing chain", `Quick, topology_routing_chain);
    ("topology shortest path", `Quick, topology_shortest_path);
    ("node agent demux", `Quick, node_agent_demux);
    ("link jitter reorders", `Quick, link_jitter_reorders);
    ("rem default params", `Quick, rem_default_params_sane);
    ("tracer records lifecycle", `Quick, tracer_records_lifecycle);
    ("tracer flags", `Quick, tracer_marks_flags);
    ("node agent dispatch", `Quick, node_agent_dispatch);
    ("queue lengths track the fifo", `Quick, queue_disc_lengths_track_fifo);
    ("link eager matches batched, mixed sizes", `Quick,
      link_eager_matches_batched_mixed_sizes);
  ]
