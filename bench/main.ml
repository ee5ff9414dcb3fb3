(* Benchmark harness.

   Part 1 (Bechamel): one Test.make per paper table/figure, each timing
   the computational kernel that experiment leans on (a scaled-down run of
   the same code path), plus the hot primitives of the simulator.

   Part 2: regenerate every table/figure row at quick scale, so
   `dune exec bench/main.exe` reproduces the paper end to end. Use
   bin/experiments_cli at `-s default` (or `full`) for the
   publication-shaped numbers.

   Part 3: allocation profile. Each hot primitive is run once with
   [Gc.minor_words] read before and after the measured phase, giving
   minor-words-per-event — the dynamic cross-check of the static
   [@alloc.zero] contract enforced by pertalloc (README "Allocation
   discipline"). `--alloc-budget FILE` turns the profile into a gate.

   Flags:
     --json FILE          also write machine-readable results (per-kernel
                          ns/run, minor words/event, wall-clock of the
                          table regeneration at -j1 and -jN, and whether
                          the two outputs were byte-identical)
     --quota SEC          bechamel time quota per kernel (default 0.5)
     --jobs N             domains for the table regeneration (0 = auto)
     --scale S            regeneration scale: smoke|quick|default|full
     --alloc-budget FILE  fail (exit 1) if any kernel exceeds its
                          committed minor-words-per-event budget *)

open Bechamel
open Toolkit

module D = Experiments.Dumbbell
module S = Experiments.Schemes

(* --- kernels -------------------------------------------------------------- *)

let tiny_dumbbell scheme =
  D.run
    (D.uniform_flows
       { D.default with D.scheme; bandwidth = 5e6; duration = 4.0;
         warmup = 2.0; start_window = (0.0, 0.2) }
       ~n:2)

let kernel_fig2_4 =
  (* Section 2 analysis path: predictor + transition machine on a synthetic
     10k-sample trace. *)
  let rtts =
    Array.init 10_000 (fun i -> 0.05 +. (0.02 *. sin (float_of_int i /. 50.0)))
  in
  let times = Array.init 10_000 (fun i -> 0.001 *. float_of_int i) in
  let trace =
    Predictors.Trace.make ~times ~rtts ~flow_losses:[||]
      ~queue_losses:[| 1.0; 3.0; 7.0 |] ()
  in
  let predictor = Predictors.Predictor.ewma ~alpha:0.99 () in
  fun () ->
    let states = predictor.Predictors.Predictor.predict trace in
    Predictors.Transitions.count ~times ~states ~losses:[| 1.0; 3.0; 7.0 |] ()

let kernel_fig5 =
  let curve = Pert_core.Response_curve.default in
  fun () ->
    let acc = ref 0.0 in
    for i = 0 to 999 do
      acc :=
        !acc
        +. Units.Prob.to_float
             (Pert_core.Response_curve.probability curve
                (Units.Time.s (float_of_int i *. 3e-5)))
    done;
    !acc

let kernel_fig13a () =
  let out = ref 0.0 in
  for n = 1 to 50 do
    out :=
      !out
      +. Fluid.Stability.delta_min ~alpha:0.99 ~l_pert:2.0 ~c:1000.0
           ~n_min:(float_of_int n) ~r_plus:0.2
  done;
  !out

let kernel_fig13 () =
  let p = Fluid.Pert_fluid.paper_params ~r:0.1 () in
  Fluid.Pert_fluid.run p ~horizon:5.0 ~dt:0.001 ~record_every:100 ()

let kernel_dynamic () =
  Experiments.Dynamic.run
    {
      (Experiments.Dynamic.default Experiments.Scale.Quick S.Pert) with
      Experiments.Dynamic.epoch = 2.0;
      bin = 1.0;
      cohort_size = 2;
      bandwidth = 5e6;
    }

let kernel_multibneck () =
  Experiments.Multibneck.run
    {
      (Experiments.Multibneck.default Experiments.Scale.Quick S.Pert) with
      Experiments.Multibneck.duration = 4.0;
      warmup = 2.0;
      cloud_size = 2;
      link_bandwidth = 5e6;
    }

let kernel_web () =
  D.run
    (D.uniform_flows
       {
         D.default with
         D.scheme = S.Pert;
         bandwidth = 5e6;
         web_sessions = 20;
         duration = 4.0;
         warmup = 2.0;
         start_window = (0.0, 0.2);
       }
       ~n:2)

let kernel_table1 () =
  D.run
    {
      D.default with
      D.scheme = S.Pert;
      bandwidth = 5e6;
      flow_rtts = List.init 5 (fun i -> 0.02 *. float_of_int (i + 1));
      duration = 4.0;
      warmup = 2.0;
      start_window = (0.0, 0.2);
    }

let kernel_fig14 () =
  tiny_dumbbell (S.Pert_pi { target_delay = Units.Time.s 0.003 })

let kernel_other_aqm () = tiny_dumbbell S.Pert_rem

let kernel_stability () =
  let kp = Fluid.Stability.pert_k ~alpha:0.99 ~c:1000.0 ~n:10.0 in
  Fluid.Stability.boundary_r
    ~holds:(fun r ->
      Fluid.Stability.theorem1_holds ~l_pert:2.0 ~c:1000.0 ~n_min:10.0
        ~r_plus:r ~k:kp)
    ()

let kernel_reverse () =
  D.run
    (D.uniform_flows
       { D.default with D.scheme = S.Pert; bandwidth = 5e6;
         reverse_flows = 2; duration = 4.0; warmup = 2.0;
         start_window = (0.0, 0.2) }
       ~n:2)

(* primitives *)

(* Drain loops use is_empty/min_time_exn/pop_min_exn — the zero-alloc
   pair the event loop itself uses ([Heap.pop]'s per-element tuple and
   option would dominate what this kernel is trying to measure). The key
   read mirrors the old tuple's time component. *)
let kernel_heap () =
  let h = Sim_engine.Heap.create () in
  for i = 0 to 999 do
    Sim_engine.Heap.add h ~time:(float_of_int ((i * 7919) mod 1000)) ~seq:i ()
  done;
  let acc = ref 0.0 in
  while not (Sim_engine.Heap.is_empty h) do
    acc := !acc +. Sim_engine.Heap.min_time_exn h;
    Sim_engine.Heap.pop_min_exn h
  done;
  ignore !acc

(* Same add/drain shape, but with the payload shape the simulator actually
   stores: one closure per event, invoked on pop. The closures keep the
   element boxes live, so this kernel also sees the cost of the popped-slot
   retention fix. *)
let kernel_heap_closure () =
  let h = Sim_engine.Heap.create () in
  let sink = ref 0 in
  for i = 0 to 999 do
    Sim_engine.Heap.add h
      ~time:(float_of_int ((i * 7919) mod 1000))
      ~seq:i
      (fun () -> sink := !sink + i)
  done;
  while not (Sim_engine.Heap.is_empty h) do
    (Sim_engine.Heap.pop_min_exn h) ()
  done;
  !sink

(* Two orders of magnitude more elements: sift depth ~17 instead of ~10,
   and the working set falls out of L1. *)
let kernel_heap_100k () =
  let h = Sim_engine.Heap.create () in
  for i = 0 to 99_999 do
    Sim_engine.Heap.add h
      ~time:(float_of_int ((i * 7919) mod 100_000))
      ~seq:i ()
  done;
  let acc = ref 0.0 in
  while not (Sim_engine.Heap.is_empty h) do
    acc := !acc +. Sim_engine.Heap.min_time_exn h;
    Sim_engine.Heap.pop_min_exn h
  done;
  ignore !acc

(* Calendar-queue counterpart of prim:heap-100k — same fill/drain shape,
   same key read, so the two rows are directly comparable: O(1) bucket
   operations against O(log n) sifts. *)
let kernel_wheel_100k () =
  let w = Sim_engine.Wheel.create () in
  for i = 0 to 99_999 do
    Sim_engine.Wheel.add w
      ~time:(float_of_int ((i * 7919) mod 100_000))
      ~seq:i ()
  done;
  let acc = ref 0.0 in
  while not (Sim_engine.Wheel.is_empty w) do
    acc := !acc +. Sim_engine.Wheel.min_time_exn w;
    Sim_engine.Wheel.pop_min_exn w
  done;
  ignore !acc

(* The fixed-delay pipeline of the wheel_tracks_density_shift test
   (test/test_engine.ml) at 100k pops: a 4096-event bulk load over
   [1, 41] s sets a 35 ms width, then 1024 events stay in flight, each
   re-added 10 ms after it pops (~9.8 us apart) — the density shift of
   in-flight packet arrivals, which only the pop-side re-width follows.
   The population stays between the resize triggers throughout. *)
let wheel_pipeline_load () =
  let w = Sim_engine.Wheel.create () in
  for i = 0 to 4095 do
    Sim_engine.Wheel.add w
      ~time:(1.0 +. (40.0 *. float_of_int i /. 4096.0))
      ~seq:i ()
  done;
  for i = 0 to 1023 do
    Sim_engine.Wheel.add w
      ~time:(1e-2 /. 1024.0 *. float_of_int i)
      ~seq:(4096 + i) ()
  done;
  w

let wheel_pipeline_run w pops =
  for i = 0 to pops - 1 do
    let t = Sim_engine.Wheel.min_time_exn w in
    Sim_engine.Wheel.pop_min_exn w;
    Sim_engine.Wheel.add w ~time:(t +. 1e-2) ~seq:(5120 + i) ()
  done

let kernel_wheel_pipeline () =
  wheel_pipeline_run (wheel_pipeline_load ()) 100_000

(* The O(1) claim under load: steady-state pop-one/add-one churn with a
   million events pending. A heap pays ~20 comparisons per operation
   here; the calendar queue's cost must not grow with the population.
   The pending set is a bechamel resource, built before the timed runs
   and kept at exactly 1M across them. Building it includes a warm-up
   churn past the gap estimator's first window turnovers: on this
   backlog the pop-side width re-check relinks all 1M nodes once, at
   the 8192nd pop (60-100 ms). That step, like the bulk load, is paid
   once per queue, and inside the timed runs it would dominate: the
   0.5 s quota buys only ~15-65 runs, because bechamel stabilises the GC
   over the ~40 MB backlog before every sample. *)
type wheel_1m = { pending : unit Sim_engine.Wheel.t; mutable seq : int }

let wheel_1m_churn st rounds =
  for _ = 1 to rounds do
    let t = Sim_engine.Wheel.min_time_exn st.pending in
    Sim_engine.Wheel.pop_min_exn st.pending;
    st.seq <- st.seq + 1;
    Sim_engine.Wheel.add st.pending ~time:(t +. 1.0) ~seq:st.seq ()
  done

let wheel_1m_build () =
  let n = 1_000_000 in
  let w = Sim_engine.Wheel.create ~capacity:n () in
  for i = 0 to n - 1 do
    Sim_engine.Wheel.add w
      ~time:(1e-3 *. float_of_int ((i * 7919) mod n))
      ~seq:i ()
  done;
  let st = { pending = w; seq = n } in
  wheel_1m_churn st 16_384;
  st

(* Arena handle lifecycle, isolated: one data + one ack packet built and
   freed per round, the slot pair recycling through the free list. This
   is the per-packet cost the record representation used to pay in
   allocation and pointer chasing. *)
let kernel_arena_churn =
  let a = Netsim.Packet.create_arena () in
  let i = ref 0 in
  fun () ->
    for _ = 1 to 1000 do
      incr i;
      let d =
        Netsim.Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq:!i ~ecn:false
          ~now:0.0 ()
      in
      let k =
        Netsim.Packet.ack a ~flow:0 ~src:1 ~dst:0 ~ack:!i ~sack:[]
          ~ecn_echo:false ~ts_echo:0.0 ~window:65535 ~now:0.0 ()
      in
      Netsim.Packet.free a d;
      Netsim.Packet.free a k
    done

(* The fused min_time/pop_min event loop in Sim.run, isolated: 10k trivial
   timers through the full scheduler path. Every timer is an event of one
   toplevel kind whose payload is the counter it bumps, as in the
   simulator proper. *)
let count_ev = Sim_engine.Event.define ~name:"bench:count" incr

let kernel_sim_events () =
  let sim = Sim_engine.Sim.create ~seed:1 () in
  let count = ref 0 in
  for i = 0 to 9_999 do
    Sim_engine.Sim.at sim
      (Units.Time.s (1e-4 *. float_of_int i))
      (count_ev count)
  done;
  Sim_engine.Sim.run ~until:(Units.Time.s 2.0) sim;
  !count

let kernel_pert_ack =
  let engine = Pert_core.Pert_red.create () in
  let i = ref 0 in
  fun () ->
    incr i;
    Pert_core.Pert_red.on_ack engine
      ~now:(0.001 *. float_of_int !i)
      ~rtt:(Units.Time.s (0.05 +. (0.01 *. sin (float_of_int !i))))
      ~u:0.999

let kernel_red_enqueue =
  let rng = Sim_engine.Rng.create 3 in
  let params = Netsim.Red.auto_params ~capacity_pps:1000.0 ~limit_pkts:100 () in
  let q =
    Netsim.Red.disc
      (Netsim.Red.create ~rng ~params ~capacity_pps:1000.0 ~limit_pkts:100)
  in
  let a = Netsim.Packet.create_arena () in
  let i = ref 0 in
  fun () ->
    incr i;
    (* boxed once, like an event's own time, and shared by every call
       below; a computed float would be boxed anew at each of them *)
    let now = Sys.opaque_identity (0.001 *. float_of_int !i) in
    let pkt =
      Netsim.Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq:!i ~ecn:true ~now ()
    in
    let size = Netsim.Packet.size a pkt in
    (match q.Netsim.Queue_disc.enqueue ~now ~size ~ecn:true pkt with
    | Netsim.Queue_disc.Accept | Netsim.Queue_disc.Accept_marked ->
        ignore (q.Netsim.Queue_disc.dequeue ~now)
    | Netsim.Queue_disc.Reject -> ());
    Netsim.Packet.free a pkt

(* One link's packet path end to end: a source offering a packet every
   1.25 transmission times (80 % load) to a Batched DropTail link with a
   constant 10 ms delay, and a sink that frees each delivered packet.
   The source re-arms one preallocated event, so the per-packet cost
   left is the link's own: enqueue, batched dequeue, the in-flight ring
   and the delivery event, plus the packet's arena slot. *)
type link_src = {
  ls_sim : Sim_engine.Sim.t;
  ls_link : Netsim.Link.t;
  ls_arena : Netsim.Packet.arena;
  ls_gap : Units.Time.t;
  mutable ls_seq : int;
  mutable ls_ev : Sim_engine.Event.t;
}

let link_src_ev =
  Sim_engine.Event.define ~name:"bench:link-src" (fun src ->
      Netsim.Link.send src.ls_link
        (Netsim.Packet.data src.ls_arena ~flow:0 ~src:0 ~dst:1
           ~seq:src.ls_seq ~ecn:false
           ~now:(Sim_engine.Sim.now src.ls_sim) ());
      src.ls_seq <- src.ls_seq + 1;
      Sim_engine.Sim.after src.ls_sim src.ls_gap src.ls_ev)

let link_src_unarmed = Sim_engine.Event.define ~name:"bench:link-unarmed" ignore ()

let link_pipeline_build () =
  let sim = Sim_engine.Sim.create ~seed:1 () in
  let arena = Netsim.Packet.create_arena () in
  let bandwidth = 100e6 in
  let link =
    Netsim.Link.create sim ~arena ~name:"pipeline"
      ~bandwidth:(Units.Rate.bps bandwidth) ~delay:(Units.Time.s 0.01)
      ~disc:(Netsim.Droptail.create ~limit_pkts:1000)
  in
  Netsim.Link.set_deliver link (fun p -> Netsim.Packet.free arena p);
  let tx = float_of_int (8 * Netsim.Packet.data_size) /. bandwidth in
  let src =
    { ls_sim = sim; ls_link = link; ls_arena = arena;
      ls_gap = Units.Time.s (tx /. 0.8); ls_seq = 0; ls_ev = link_src_unarmed }
  in
  src.ls_ev <- link_src_ev src;
  Sim_engine.Sim.at sim (Units.Time.s 0.0) src.ls_ev;
  src

(* Offer [n] more packets; returns how many the link has been offered. *)
let link_pipeline_run src n =
  let horizon =
    Sim_engine.Sim.now src.ls_sim
    +. (float_of_int n *. Units.Time.to_s src.ls_gap)
  in
  Sim_engine.Sim.run ~until:(Units.Time.s horizon) src.ls_sim;
  Netsim.Link.arrivals src.ls_link

let kernel_link_pipeline =
  let src = link_pipeline_build () in
  fun () -> ignore (link_pipeline_run src 1000)

(* --- allocation profile ----------------------------------------------------

   Dynamic side of the [@alloc.zero] contract: run each hot primitive
   once, read [Gc.minor_words] around the measured phase only (setup —
   heap/queue construction, timer scheduling — happens outside), and
   report minor words per event. Floats passed to or returned from
   non-inlined functions are still boxed by the compiler (a documented
   pertalloc blind spot, DESIGN.md §6), so the committed budgets in
   bench/alloc_budget.txt are small-but-nonzero rather than exactly 0. *)

let alloc_heap n () =
  (* presized: amortised growth is [grow]'s allowed allocation, not the
     steady-state cost this profile tracks *)
  let h = Sim_engine.Heap.create ~capacity:n () in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Sim_engine.Heap.add h ~time:(float_of_int ((i * 7919) mod n)) ~seq:i ()
  done;
  let acc = ref 0.0 in
  while not (Sim_engine.Heap.is_empty h) do
    acc := !acc +. Sim_engine.Heap.min_time_exn h;
    Sim_engine.Heap.pop_min_exn h
  done;
  ignore !acc;
  (Gc.minor_words () -. w0, 2 * n)

let alloc_heap_closure () =
  let n = 1000 in
  let h = Sim_engine.Heap.create ~capacity:n () in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    (* the payload closure is the kernel's subject: one per event *)
    Sim_engine.Heap.add h
      ~time:(float_of_int ((i * 7919) mod n))
      ~seq:i
      (fun () -> sink := !sink + i)
  done;
  while not (Sim_engine.Heap.is_empty h) do
    (Sim_engine.Heap.pop_min_exn h) ()
  done;
  ignore !sink;
  (Gc.minor_words () -. w0, 2 * n)

let alloc_sim_events () =
  let sim = Sim_engine.Sim.create ~seed:1 () in
  let count = ref 0 in
  for i = 0 to 9_999 do
    Sim_engine.Sim.at sim
      (Units.Time.s (1e-4 *. float_of_int i))
      (count_ev count)
  done;
  let w0 = Gc.minor_words () in
  Sim_engine.Sim.run ~until:(Units.Time.s 2.0) sim;
  (Gc.minor_words () -. w0, !count)

let alloc_pert_ack () =
  let engine = Pert_core.Pert_red.create () in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore
      (Pert_core.Pert_red.on_ack engine
         ~now:(0.001 *. float_of_int i)
         ~rtt:(Units.Time.s (0.05 +. (0.01 *. sin (float_of_int i))))
         ~u:0.999)
  done;
  (Gc.minor_words () -. w0, n)

let alloc_red_enqueue () =
  let rng = Sim_engine.Rng.create 3 in
  let params = Netsim.Red.auto_params ~capacity_pps:1000.0 ~limit_pkts:100 () in
  let q =
    Netsim.Red.disc
      (Netsim.Red.create ~rng ~params ~capacity_pps:1000.0 ~limit_pkts:100)
  in
  let a = Netsim.Packet.create_arena () in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    (* Boxed once per arrival and shared by Packet.data, enqueue and
       dequeue, as the simulator shares an event's time: a computed
       float would be boxed anew for each call, and that boxing, not
       RED, would be most of the row. *)
    let now = Sys.opaque_identity (0.001 *. float_of_int i) in
    (* the packet itself is part of the measured cost: one arena
       alloc/free per arrival is what the simulator pays too *)
    let pkt =
      Netsim.Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq:i ~ecn:true ~now ()
    in
    let size = Netsim.Packet.size a pkt in
    (match q.Netsim.Queue_disc.enqueue ~now ~size ~ecn:true pkt with
    | Netsim.Queue_disc.Accept | Netsim.Queue_disc.Accept_marked ->
        ignore (q.Netsim.Queue_disc.dequeue ~now)
    | Netsim.Queue_disc.Reject -> ());
    Netsim.Packet.free a pkt
  done;
  (Gc.minor_words () -. w0, n)

let alloc_wheel n () =
  let w = Sim_engine.Wheel.create ~capacity:n () in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Sim_engine.Wheel.add w ~time:(float_of_int ((i * 7919) mod n)) ~seq:i ()
  done;
  let acc = ref 0.0 in
  while not (Sim_engine.Wheel.is_empty w) do
    acc := !acc +. Sim_engine.Wheel.min_time_exn w;
    Sim_engine.Wheel.pop_min_exn w
  done;
  ignore !acc;
  (Gc.minor_words () -. w0, 2 * n)

(* Steady-state churn at constant population — the shape Sim.run
   produces. Warm first so pool growth and ring resizes settle; the
   measured window is pure pop/add. *)
let alloc_wheel_churn () =
  let n = 1000 in
  let w = Sim_engine.Wheel.create ~capacity:n () in
  for i = 0 to n - 1 do
    Sim_engine.Wheel.add w ~time:(float_of_int ((i * 7919) mod n) *. 0.001) ~seq:i ()
  done;
  let churn rounds seq0 =
    for i = 0 to rounds - 1 do
      let t = Sim_engine.Wheel.min_time_exn w in
      Sim_engine.Wheel.pop_min_exn w;
      Sim_engine.Wheel.add w ~time:(t +. 1.0) ~seq:(seq0 + i) ()
    done
  in
  churn n n;
  let w0 = Gc.minor_words () in
  churn n (2 * n);
  (Gc.minor_words () -. w0, 2 * n)

(* Measured phase: the 100k pops and their re-adds, re-widths
   included; the bulk load and pool growth happen before. *)
let alloc_wheel_pipeline () =
  let w = wheel_pipeline_load () in
  let w0 = Gc.minor_words () in
  wheel_pipeline_run w 100_000;
  (Gc.minor_words () -. w0, 2 * 100_000)

let alloc_arena_churn () =
  let a = Netsim.Packet.create_arena () in
  let n = 10_000 in
  (* warm: grow the arena to its steady footprint *)
  let warm =
    List.init 64 (fun i ->
        Netsim.Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq:i ~ecn:false ~now:0.0
          ())
  in
  List.iter (fun p -> Netsim.Packet.free a p) warm;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    let d =
      Netsim.Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq:i ~ecn:false ~now:0.0 ()
    in
    let k =
      Netsim.Packet.ack a ~flow:0 ~src:1 ~dst:0 ~ack:i ~sack:[]
        ~ecn_echo:false ~ts_echo:0.0 ~window:65535 ~now:0.0 ()
    in
    Netsim.Packet.free a d;
    Netsim.Packet.free a k
  done;
  (Gc.minor_words () -. w0, 2 * n)

(* Words per packet offered, after a warm-up that fills the wire (the
   ring and the arena reach their steady size). *)
let alloc_link_pipeline () =
  let src = link_pipeline_build () in
  let n = 10_000 in
  let before = link_pipeline_run src 1000 in
  let w0 = Gc.minor_words () in
  let after = link_pipeline_run src n in
  (Gc.minor_words () -. w0, after - before)

let alloc_profiles =
  [
    ("prim:heap-1k", alloc_heap 1_000);
    ("prim:heap-1k-closure", alloc_heap_closure);
    ("prim:heap-100k", alloc_heap 100_000);
    ("prim:wheel-100k", alloc_wheel 100_000);
    ("prim:wheel-churn", alloc_wheel_churn);
    ("prim:wheel-pipeline", alloc_wheel_pipeline);
    ("prim:arena-churn", alloc_arena_churn);
    ("prim:sim-10k-events", alloc_sim_events);
    ("prim:pert-on-ack", alloc_pert_ack);
    ("prim:red-enqueue", alloc_red_enqueue);
    ("prim:link-pipeline", alloc_link_pipeline);
  ]

let measure_alloc () =
  List.map
    (fun (name, k) ->
      ignore (k ());  (* warmup: fill caches, trigger any one-off setup *)
      let words, events = k () in
      (name, words /. float_of_int (max 1 events), events))
    alloc_profiles

let print_alloc rows =
  Printf.printf "%-38s %16s %10s\n" "allocation profile" "minor w/event"
    "events";
  List.iter
    (fun (name, per_event, events) ->
      Printf.printf "%-38s %16.3f %10d\n" name per_event events)
    rows;
  print_newline ()

(* --- snapshot kernel ------------------------------------------------------- *)

(* Sim.Snapshot over a deliberately heavy live state: a wheel carrying
   100k pending defunctionalized events plus a warm packet arena as the
   world. Measured directly (best of [rounds], wall clock) rather than
   through bechamel: one save is a full Marshal graph walk plus file
   I/O, so an OLS fit over ns/run adds nothing, and the ~MB live set
   would bleed major-GC mark work into the other kernels' samples. *)

let snap_tick = Sim_engine.Event.define2 ~name:"bench:snap-tick" (fun () _ -> ())

let measure_snapshot ?(rounds = 5) () =
  let pending = 100_000 in
  let sim = Sim_engine.Sim.create ~seed:7 ~scheduler:`Wheel () in
  for i = 0 to pending - 1 do
    Sim_engine.Sim.at sim
      (Units.Time.s (1e-3 *. float_of_int ((i * 7919) mod pending)))
      (snap_tick () i)
  done;
  (* Warm arena: slots populated, then every third handle freed so the
     free list is threaded through the occupancy like mid-run churn. *)
  let arena = Netsim.Packet.create_arena ~capacity:4096 () in
  let handles =
    Array.init 4096 (fun i ->
        Netsim.Packet.data arena ~flow:(i land 63) ~src:0 ~dst:1 ~seq:i
          ~ecn:false ~now:(1e-4 *. float_of_int i) ())
  in
  Array.iteri
    (fun i h -> if i mod 3 = 0 then Netsim.Packet.free arena h)
    handles;
  let path = Filename.temp_file "pert-bench" ".snap" in
  let bytes = ref 0 and save_ms = ref infinity and load_ms = ref infinity in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    bytes := Sim_engine.Sim.Snapshot.save sim ~world:arena ~path;
    save_ms := Float.min !save_ms ((Unix.gettimeofday () -. t0) *. 1e3);
    let t1 = Unix.gettimeofday () in
    let _sim', (arena' : Netsim.Packet.arena) =
      Sim_engine.Sim.Snapshot.load ~path
    in
    load_ms := Float.min !load_ms ((Unix.gettimeofday () -. t1) *. 1e3);
    assert (Netsim.Packet.live arena' = Netsim.Packet.live arena)
  done;
  Sys.remove path;
  (pending, !bytes, !save_ms, !load_ms)

let print_snapshot (pending, bytes, save_ms, load_ms) =
  Printf.printf
    "snapshot (%dk pending events + warm arena)   save %7.3f ms   load \
     %7.3f ms   %d bytes\n\n"
    (pending / 1000) save_ms load_ms bytes

(* Budget file: one `<kernel-name> <max-minor-words-per-event>` pair per
   line; '#' starts a comment. Unknown kernels in the file are an error
   (they would silently gate nothing after a rename). *)
let read_budget path =
  let ic = open_in path in
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let fields =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        let acc =
          match fields with
          | [] -> acc
          | [ name; limit ] -> (
              match float_of_string_opt limit with
              | Some l -> (name, l) :: acc
              | None ->
                  Printf.eprintf "%s:%d: bad budget %S\n" path lineno limit;
                  exit 2)
          | _ ->
              Printf.eprintf "%s:%d: expected `<kernel> <max-words>`\n" path
                lineno;
              exit 2
        in
        go acc (lineno + 1)
  in
  go [] 1

let check_budget ~path alloc_rows =
  let budget = read_budget path in
  let failures = ref 0 in
  List.iter
    (fun (name, limit) ->
      match List.find_opt (fun (n, _, _) -> n = name) alloc_rows with
      | None ->
          incr failures;
          Printf.eprintf
            "alloc budget: unknown kernel %S in %s (renamed? stale gate)\n"
            name path
      | Some (_, per_event, _) ->
          if per_event > limit then begin
            incr failures;
            Printf.eprintf
              "alloc budget: %s allocates %.3f minor words/event, budget \
               is %.3f (%s)\n"
              name per_event limit path
          end)
    budget;
  if !failures = 0 then
    Printf.printf "[alloc budget: %d kernel(s) within %s]\n"
      (List.length budget) path
  else begin
    Printf.eprintf "[alloc budget: %d violation(s) against %s]\n" !failures
      path;
    exit 1
  end

let staged name f = Test.make ~name (Staged.stage f)

let tests =
  Test.make_grouped ~name:"pert" ~fmt:"%s/%s"
    [
      (* one kernel per paper artefact *)
      staged "fig2-4:predictor-analysis" (fun () -> ignore (kernel_fig2_4 ()));
      staged "fig5:response-curve" (fun () -> ignore (kernel_fig5 ()));
      staged "fig6:dumbbell-pert" (fun () -> ignore (tiny_dumbbell S.Pert));
      staged "fig6:dumbbell-droptail" (fun () ->
          ignore (tiny_dumbbell S.Sack_droptail));
      staged "fig7:dumbbell-red-ecn" (fun () ->
          ignore (tiny_dumbbell S.Sack_red_ecn));
      staged "fig8:dumbbell-vegas" (fun () -> ignore (tiny_dumbbell S.Vegas));
      staged "fig9:web-workload" (fun () -> ignore (kernel_web ()));
      staged "table1:hetero-rtt" (fun () -> ignore (kernel_table1 ()));
      staged "fig11:multibottleneck" (fun () -> ignore (kernel_multibneck ()));
      staged "fig12:dynamic-cohorts" (fun () -> ignore (kernel_dynamic ()));
      staged "fig13a:stability-sweep" (fun () -> ignore (kernel_fig13a ()));
      staged "fig13:fluid-dde" (fun () -> ignore (kernel_fig13 ()));
      staged "fig14:dumbbell-pert-pi" (fun () -> ignore (kernel_fig14 ()));
      staged "other-aqm:dumbbell-pert-rem" (fun () -> ignore (kernel_other_aqm ()));
      staged "stability:boundary-bisection" (fun () -> ignore (kernel_stability ()));
      staged "reverse:dumbbell-rev-flows" (fun () -> ignore (kernel_reverse ()));
      (* hot primitives *)
      staged "prim:heap-1k" kernel_heap;
      staged "prim:heap-1k-closure" (fun () -> ignore (kernel_heap_closure ()));
      staged "prim:heap-100k" kernel_heap_100k;
      staged "prim:wheel-100k" kernel_wheel_100k;
      staged "prim:wheel-pipeline" kernel_wheel_pipeline;
      staged "prim:arena-churn" kernel_arena_churn;
      staged "prim:sim-10k-events" (fun () -> ignore (kernel_sim_events ()));
      staged "prim:pert-on-ack" (fun () -> ignore (kernel_pert_ack ()));
      staged "prim:red-enqueue" kernel_red_enqueue;
      staged "prim:link-pipeline" kernel_link_pipeline;
      (* Deliberately last: this kernel's resource is a million-node
         wheel (~40 MB, ~24 MB of it pointer-scannable), and
         incremental major-GC mark slices over that live set would
         otherwise leak into every later kernel's samples — a ~10x
         distortion for the sub-100ns kernels above. *)
      Test.make_with_resource ~name:"prim:wheel-1M-pending" Test.uniq
        ~allocate:wheel_1m_build ~free:ignore
        (Staged.stage (fun st -> wheel_1m_churn st 1000));
    ]

(* --- measurement ----------------------------------------------------------- *)

let measure_kernels ~quota () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true
      ~compaction:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  let rows =
    List.map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> (name, Some est)
        | Some _ | None -> (name, None))
      rows
  in
  List.sort (fun (a, _) (b, _) -> compare (a : string) b) rows

let print_kernels rows =
  Printf.printf "%-38s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%8.3f  s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
            else Printf.sprintf "%8.1f ns" est
          in
          Printf.printf "%-38s %16s\n" name pretty
      | None -> Printf.printf "%-38s %16s\n" name "n/a")
    rows;
  print_newline ()

(* Render every registry table at [scale] with a [jobs]-wide pool; returns
   (wall_seconds, rendered_output). Rendering into a string lets the JSON
   mode check -j1 and -jN for byte identity instead of trusting it. *)
let regenerate_tables ~jobs ~scale () =
  let buf = Buffer.create (1 lsl 16) in
  let fmt = Format.formatter_of_buffer buf in
  let t0 = Unix.gettimeofday () in
  let results =
    Experiments.Registry.run_many
      ~ctx:(Experiments.Runner.ctx ~jobs ())
      scale Experiments.Registry.all
  in
  List.iter
    (fun (e, tables) ->
      Format.fprintf fmt "# %s (%s)@." e.Experiments.Registry.id
        e.Experiments.Registry.paper_ref;
      Experiments.Output.print_all fmt tables)
    results;
  Format.pp_print_flush fmt ();
  (Unix.gettimeofday () -. t0, Buffer.contents buf)

(* --- machine-readable trajectory ------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~path ~quota ~scale ~kernels ~alloc ~snapshot ~jobs1_wall
    ~jobsn ~jobsn_wall ~identical =
  let buf = Buffer.create (1 lsl 12) in
  Buffer.add_string buf "{\n";
  (* pert-bench/3: adds the "snapshot" object (Sim.Snapshot.save/load
     over a 100k-pending wheel + warm arena, wall ms and payload bytes)
     to pert-bench/2, which added the "alloc" array (minor words per
     event per hot primitive, the dynamic [@alloc.zero] cross-check) to
     pert-bench/1. *)
  Buffer.add_string buf "  \"schema\": \"pert-bench/3\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"cores\": %d,\n" (Parallel.default_jobs ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": \"%s\",\n"
       (json_escape (Experiments.Scale.to_string scale)));
  Buffer.add_string buf (Printf.sprintf "  \"quota_s\": %g,\n" quota);
  Buffer.add_string buf "  \"kernels\": [\n";
  let n = List.length kernels in
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string buf
        (match est with
        | Some est ->
            Printf.sprintf "    { \"name\": \"%s\", \"ns_per_run\": %.2f }"
              (json_escape name) est
        | None ->
            Printf.sprintf "    { \"name\": \"%s\", \"ns_per_run\": null }"
              (json_escape name));
      Buffer.add_string buf (if i = n - 1 then "\n" else ",\n"))
    kernels;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"alloc\": [\n";
  let na = List.length alloc in
  List.iteri
    (fun i (name, per_event, events) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"minor_words_per_event\": %.4f, \
            \"events\": %d }"
           (json_escape name) per_event events);
      Buffer.add_string buf (if i = na - 1 then "\n" else ",\n"))
    alloc;
  Buffer.add_string buf "  ],\n";
  (let pending, bytes, save_ms, load_ms = snapshot in
   Buffer.add_string buf "  \"snapshot\": {\n";
   Buffer.add_string buf
     (Printf.sprintf "    \"pending_events\": %d,\n" pending);
   Buffer.add_string buf (Printf.sprintf "    \"bytes\": %d,\n" bytes);
   Buffer.add_string buf (Printf.sprintf "    \"save_ms\": %.3f,\n" save_ms);
   Buffer.add_string buf (Printf.sprintf "    \"load_ms\": %.3f\n" load_ms);
   Buffer.add_string buf "  },\n");
  Buffer.add_string buf "  \"tables\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"jobs1_wall_s\": %.3f,\n" jobs1_wall);
  Buffer.add_string buf (Printf.sprintf "    \"jobsn\": %d,\n" jobsn);
  Buffer.add_string buf
    (Printf.sprintf "    \"jobsn_wall_s\": %.3f,\n" jobsn_wall);
  Buffer.add_string buf
    (Printf.sprintf "    \"identical\": %b\n" identical);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  Experiments.Store.write_atomic ~path (Buffer.contents buf)

(* --- driver ---------------------------------------------------------------- *)

let () =
  let opt_json = ref None in
  let opt_quota = ref 0.5 in
  let opt_jobs = ref 1 in
  let opt_scale = ref Experiments.Scale.Quick in
  let opt_budget = ref None in
  let set_scale s =
    match Experiments.Scale.of_string s with
    | Ok v -> opt_scale := v
    | Error e -> raise (Arg.Bad e)
  in
  let specs =
    [
      ( "--json",
        Arg.String (fun s -> opt_json := Some s),
        "FILE  also write machine-readable results to FILE" );
      ( "--quota",
        Arg.Set_float opt_quota,
        "SEC  bechamel time quota per kernel (default 0.5)" );
      ( "--jobs",
        Arg.Set_int opt_jobs,
        "N  domains for table regeneration (0 = one per recommended core)" );
      ( "--scale",
        Arg.String set_scale,
        "SCALE  regeneration scale: smoke|quick|default|full (default quick)"
      );
      ( "--alloc-budget",
        Arg.String (fun s -> opt_budget := Some s),
        "FILE  fail if a kernel exceeds its minor-words-per-event budget" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "bench/main.exe [--json FILE] [--quota SEC] [--jobs N] [--scale SCALE] \
     [--alloc-budget FILE]";
  let jobs =
    if !opt_jobs = 0 then Parallel.default_jobs () else max 1 !opt_jobs
  in
  let scale = !opt_scale in
  let kernels = measure_kernels ~quota:!opt_quota () in
  print_kernels kernels;
  let alloc = measure_alloc () in
  print_alloc alloc;
  let snapshot = measure_snapshot () in
  print_snapshot snapshot;
  (match !opt_budget with
  | Some path -> check_budget ~path alloc
  | None -> ());
  Printf.printf "=== paper tables/figures (%s scale) ===\n"
    (Experiments.Scale.to_string scale);
  print_endline
    "(use `dune exec bin/experiments_cli.exe -- all -s default` for the \
     publication-shaped runs)\n";
  match !opt_json with
  | None ->
      let wall, rendered = regenerate_tables ~jobs ~scale () in
      print_string rendered;
      Printf.printf "\n[tables regenerated in %.3f s at -j%d]\n" wall jobs
  | Some path ->
      (* The trajectory file records the sequential baseline and the -jN
         run side by side, plus whether their bytes matched. *)
      let wall1, out1 = regenerate_tables ~jobs:1 ~scale () in
      let walln, outn = regenerate_tables ~jobs ~scale () in
      print_string outn;
      let identical = String.equal out1 outn in
      write_json ~path ~quota:!opt_quota ~scale ~kernels ~alloc ~snapshot
        ~jobs1_wall:wall1 ~jobsn:jobs ~jobsn_wall:walln ~identical;
      Printf.printf
        "\n[tables: %.3f s at -j1, %.3f s at -j%d, identical=%b; wrote %s]\n"
        wall1 walln jobs identical path;
      if not identical then exit 1
