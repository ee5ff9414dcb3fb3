module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module Stats = Sim_engine.Stats
module Fvec = Sim_engine.Fvec
module Time = Units.Time
module Rate = Units.Rate

type event = Enqueue | Dequeue | Receive | Drop
type service = Eager | Batched

(* Batched-mode server state lives in a [floatarray] plane: as mutable
   float fields of the mixed record below every store would box
   (pertalloc rule A2). *)
let b_sched_free = 0 (* finish time of the last materialized transmission *)
let b_restart = 1 (* head restarts here after idle/outage, if > sched_free *)
let b_anchor = 2 (* earliest pending anchor event; infinity = none *)

type t = {
  sim : Sim.t;
  name : string;
  arena : Packet.arena;
  service : service;
  bandwidth : Rate.t;
  delay : Time.t;
  jitter : Time.t;
  jitter_rng : Sim_engine.Rng.t;
  disc : Queue_disc.t;
  mutable deliver : Packet.t -> unit;
  mutable event_hook : (now:float -> event -> Packet.t -> unit) option;
  mutable busy : bool;  (* eager mode *)
  mutable up : bool;
  (* Preallocated transmission-complete machinery (eager mode): [tx_done]
     is built once at create and rescheduled for every packet, instead of
     allocating an event per transmission; the packet in flight on
     the bottleneck server travels through [tx_pkt]. *)
  mutable tx_pkt : Packet.t;  (* meaningful only while [busy] *)
  mutable tx_done : Event.t;
  (* Preallocated batched-mode anchor event (see [arm_anchor]). *)
  mutable anchor_ev : Event.t;
  bs : floatarray;
  (* In-flight ring: packets on the wire, as parallel power-of-two rings
     of (delivery time, reserved seq, packet) sorted by the [(time, seq)]
     key the scheduler orders by, head first. Storage is allocated on
     the first push. Only the head entry is handed to the scheduler, as
     [deliver_ev] under its own key, so the link keeps one delivery
     event pending instead of one per packet (see [ring_settle]). *)
  mutable fl_time : floatarray;
  mutable fl_seq : int array;  (* [lnot seq] once handed to the scheduler *)
  mutable fl_pkt : Packet.t array;
  mutable fl_head : int;
  mutable fl_len : int;
  mutable deliver_ev : Event.t;
  (* lifetime accounting (never reset): conservation invariant *)
  mutable life_arrivals : int;
  mutable life_drops : int;
  mutable delivered : int;
  mutable in_flight : int;  (* dequeued, not yet handed to [deliver] *)
  mutable outage_drops : int;
  (* measurement (reset at window boundaries) *)
  mutable arrivals : int;
  mutable drops : int;
  mutable marks : int;
  mutable bytes_sent : int;
  mutable window_start : float;
  mutable qmax : int;
  qavg : Stats.Time_weighted.t;
  mutable drop_trace : Fvec.t option;
  mutable queue_trace : (Fvec.t * Fvec.t) option;  (* times, lengths *)
}

(* Payload of the self-rescheduling queue-trace event kind: the sampled
   link plus the (per-enable, fixed) sampling interval. *)
type qtrace = { qt_link : t; qt_interval : Time.t }

let[@inline] sched_free t = Float.Array.unsafe_get t.bs b_sched_free
let[@inline] set_sched_free t v = Float.Array.unsafe_set t.bs b_sched_free v
let[@inline] restart_at t = Float.Array.unsafe_get t.bs b_restart
let[@inline] set_restart_at t v = Float.Array.unsafe_set t.bs b_restart v
let[@inline] anchor_next t = Float.Array.unsafe_get t.bs b_anchor
let[@inline] set_anchor_next t v = Float.Array.unsafe_set t.bs b_anchor v

(* Start of the next unmaterialized transmission: back-to-back with the
   previous one, unless the server restarted later (idle, outage end).
   [Float.max] without its C call: both are nonnegative times, never
   NaN or a negative zero. *)
let[@inline] next_start t =
  let r = restart_at t and f = sched_free t in
  if r > f then r else f

let set_deliver t f = t.deliver <- f

let interpose_deliver t wrap =
  let inner = t.deliver in
  t.deliver <- wrap inner

let set_event_hook t f = t.event_hook <- Some f

(* [now] is the event's own time: in batched mode a Dequeue is emitted at
   catch-up, after the fact, carrying its historical service time. *)
let emit t ~now event pkt =
  match t.event_hook with
  (* A1: the hook is instrumentation (tests, experiment tracing), wired
     only on request; what it allocates is charged to its author. *)
  | Some f -> (f ~now event pkt [@lint.allow "A1"])
  | None -> ()

let name t = t.name
let sim t = t.sim
let disc t = t.disc
let arena t = t.arena
let service t = t.service

(* --- in-flight ring -------------------------------------------------------

   Propagation runs in parallel with transmission, so many packets can
   be on the wire at once; each must reach the far end at its own
   (time, seq) key. The ring keeps them sorted by that key, and only the
   head is ever pending in the scheduler: when it fires, the next entry
   becomes the head and is scheduled under its own key. Every entry is
   handed to the scheduler at most once, at the moment it becomes the
   head, and the event that fires always pops the head — the earliest
   pending key of this link is always the head's.

   The push path runs inside [@alloc.zero] roots ([send],
   [tx_complete]), so its helpers pass only ints: the caller writes the
   delivery time straight into the float plane, where a store does not
   box. *)

let[@inline] ring_mask t = Float.Array.length t.fl_time - 1
let[@inline] ring_slot t k = (t.fl_head + k) land ring_mask t

(* [@lint.allow "A1"]: doubling amortises the fresh backing arrays to
   O(1) words per push, as in [Queue_disc.Fifo.grow]; a link at its
   steady-state number of packets in flight never grows again. *)
let[@lint.allow "A1"] ring_grow t =
  let cap = Float.Array.length t.fl_time in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let time = Float.Array.make cap' 0.0 in
  let seq = Array.make cap' 0 in
  let pkt = Array.make cap' Packet.none in
  for k = 0 to t.fl_len - 1 do
    let j = ring_slot t k in
    Float.Array.unsafe_set time k (Float.Array.unsafe_get t.fl_time j);
    Array.unsafe_set seq k (Array.unsafe_get t.fl_seq j);
    Array.unsafe_set pkt k (Array.unsafe_get t.fl_pkt j)
  done;
  t.fl_time <- time;
  t.fl_seq <- seq;
  t.fl_pkt <- pkt;
  t.fl_head <- 0

(* Claim the slot after the tail for a packet and return its index; the
   caller stores the delivery time there, then calls [ring_settle]. *)
let ring_push t ~seq pkt =
  if t.fl_len = Float.Array.length t.fl_time then ring_grow t;
  let i = ring_slot t t.fl_len in
  Array.unsafe_set t.fl_seq i seq;
  Array.unsafe_set t.fl_pkt i pkt;
  t.fl_len <- t.fl_len + 1;
  i

let ring_swap t i j =
  let time = Float.Array.unsafe_get t.fl_time i in
  Float.Array.unsafe_set t.fl_time i (Float.Array.unsafe_get t.fl_time j);
  Float.Array.unsafe_set t.fl_time j time;
  let seq = Array.unsafe_get t.fl_seq i in
  Array.unsafe_set t.fl_seq i (Array.unsafe_get t.fl_seq j);
  Array.unsafe_set t.fl_seq j seq;
  let pkt = Array.unsafe_get t.fl_pkt i in
  Array.unsafe_set t.fl_pkt i (Array.unsafe_get t.fl_pkt j);
  Array.unsafe_set t.fl_pkt j pkt

(* Hand the head to the scheduler unless it already is: jitter can put a
   newer packet in front of a scheduled head, which then stays pending
   under its own key and must not be scheduled twice. *)
let schedule_head t =
  let i = t.fl_head in
  let seq = Array.unsafe_get t.fl_seq i in
  if seq >= 0 then begin
    Array.unsafe_set t.fl_seq i (lnot seq);
    Sim.at_reserved t.sim
      (Time.s (Float.Array.unsafe_get t.fl_time i))
      ~seq t.deliver_ev
  end

(* Move the newest entry (logical position [k], the tail) in front of
   every entry due strictly later. Its seq is the largest in the ring,
   so an equal time keeps it behind. Without jitter delivery times are
   nondecreasing and this never moves anything. *)
let rec ring_settle_from t k =
  if k = 0 then schedule_head t
  else begin
    let i = ring_slot t k and j = ring_slot t (k - 1) in
    if Float.Array.unsafe_get t.fl_time j > Float.Array.unsafe_get t.fl_time i
    then begin
      ring_swap t i j;
      ring_settle_from t (k - 1)
    end
  end

let ring_settle t = ring_settle_from t (t.fl_len - 1)

(* Remove the head, hand its successor to the scheduler, return it. *)
let ring_pop t =
  let i = t.fl_head in
  let pkt = Array.unsafe_get t.fl_pkt i in
  Array.unsafe_set t.fl_pkt i Packet.none;
  t.fl_head <- (i + 1) land ring_mask t;
  t.fl_len <- t.fl_len - 1;
  if t.fl_len > 0 then schedule_head t;
  pkt

let note_queue_change t ~now =
  let len = Queue_disc.pkt_length t.disc in
  if len > t.qmax then t.qmax <- len;
  Stats.Time_weighted.update t.qavg ~now ~value:(float_of_int len)

(* --- batched service ----------------------------------------------------

   The eager server runs one tx-complete event per packet. The batched
   server instead *computes* transmission finish times (a work-conserving
   FIFO server is a virtual clock: finish = start + size/bandwidth,
   back-to-back) and materializes the dequeue bookkeeping lazily, in
   batches, whenever the link is next observed — an arrival, a delivery,
   a stats read, or the safety-net anchor event. Each materialized
   packet is still delivered by an event at its own key (causality: the
   receiver reacts at the exact arrival instant; see the in-flight
   ring), but the per-packet tx-complete event disappears;
   [Sim.charge_events] keeps the logical event count.

   Invariants:
   - packets are materialized in FIFO order, with historical timestamps
     (their true service start) fed to the discipline, the queue-length
     average and the event hook — every observer therefore sees the same
     chronological sequence as under the eager server;
   - a packet is materialized no later than any event that could observe
     its effects, and no later than its own delivery time: whenever
     unmaterialized work exists, an anchor event is armed at or before
     [next_start + delay], which precedes every unscheduled delivery
     ([finish + delay + jitter > next_start + delay]). *)

let rec catch_up t ~charge =
  match t.service with
  | Eager -> ()
  | Batched ->
      if t.up then begin
        let now = Sim.now t.sim in
        catch_loop t now ~charge;
        arm_anchor t
      end

and catch_loop t now ~charge =
  if Queue_disc.pkt_length t.disc > 0 then begin
    let start = next_start t in
    if start <= now then begin
      materialize_one t ~start ~charge;
      catch_loop t now ~charge
    end
  end

(* One transmission, reconstructed after the fact: dequeue at its true
   service start, account the bytes, and schedule the delivery. *)
and materialize_one t ~start ~charge =
  let pkt = (t.disc.Queue_disc.dequeue ~now:start [@lint.allow "A1"]) in
  note_queue_change t ~now:start;
  emit t ~now:start Dequeue pkt;
  t.busy <- true;
  t.in_flight <- t.in_flight + 1;
  let size = Packet.size t.arena pkt in
  t.bytes_sent <- t.bytes_sent + size;
  let tx = Time.to_s (Units.Size.tx_time (Units.Size.bytes size) t.bandwidth) in
  let finish = start +. tx in
  set_sched_free t finish;
  let extra =
    if Time.to_s t.jitter > 0.0 then
      Sim_engine.Rng.float t.jitter_rng (Time.to_s t.jitter)
    else 0.0
  in
  (* The packet joins the in-flight ring under the key a per-packet
     event would have had. *)
  let i = ring_push t ~seq:(Sim.reserve t.sim) pkt in
  Float.Array.unsafe_set t.fl_time i (finish +. Time.to_s t.delay +. extra);
  ring_settle t;
  (* The tx-complete event this materialization replaced, kept in the
     logical event count (budgets, events_executed). Not charged from
     stats accessors: reading a counter must never trip a budget. *)
  if charge then Sim.charge_events t.sim 1

(* Safety-net event: with no arrival or delivery to piggyback on, the
   next unmaterialized transmission must still be realized before its
   delivery falls due. Armed at [next_start + delay], which is always
   at or after now (the head's start is in the future once catch-up has
   drained everything startable) and at or before the head's delivery
   time. [b_anchor] tracks the earliest armed anchor so re-arming only
   schedules when it strictly helps; a superseded anchor fires as a
   harmless no-op catch-up. *)
and arm_anchor t =
  if Queue_disc.pkt_length t.disc > 0 then begin
    let a = next_start t +. Time.to_s t.delay in
    if a < anchor_next t then begin
      set_anchor_next t a;
      Sim.at t.sim (Time.s a) t.anchor_ev
    end
  end
  else t.busy <- sched_free t > Sim.now t.sim

let anchor_tick t =
  set_anchor_next t infinity;
  catch_up t ~charge:true

(* The head of the in-flight ring reaches the far end. *)
let deliver_tick t =
  let pkt = ring_pop t in
  (* Earlier service starts are part of this instant's past: materialize
     them first so hooks observe events in chronological order. *)
  catch_up t ~charge:true;
  emit t ~now:(Sim.now t.sim) Receive pkt;
  t.in_flight <- t.in_flight - 1;
  t.delivered <- t.delivered + 1;
  t.deliver pkt

(* --- eager service ------------------------------------------------------ *)

let[@alloc.zero] start_transmission t =
  if not t.up then t.busy <- false
  else
    match
      (* A1: function-typed field — each discipline's [dequeue] carries
         its own [@alloc.zero] contract. *)
      (t.disc.Queue_disc.dequeue ~now:(Sim.now t.sim) [@lint.allow "A1"])
    with
    | exception Queue_disc.Empty -> t.busy <- false
    | pkt ->
        let now = Sim.now t.sim in
        note_queue_change t ~now;
        emit t ~now Dequeue pkt;
        t.busy <- true;
        t.in_flight <- t.in_flight + 1;
        let tx_time =
          Units.Size.tx_time
            (Units.Size.bytes (Packet.size t.arena pkt))
            t.bandwidth
        in
        t.tx_pkt <- pkt;
        Sim.after t.sim tx_time t.tx_done

(* Runs when the head packet finishes serialising onto the wire.
   Propagation proceeds in parallel with the next transmission;
   per-packet jitter may reorder deliveries. *)
let[@alloc.zero] tx_complete t =
  let pkt = t.tx_pkt in
  t.bytes_sent <- t.bytes_sent + Packet.size t.arena pkt;
  let extra =
    if Time.to_s t.jitter > 0.0 then
      Sim_engine.Rng.float t.jitter_rng (Time.to_s t.jitter)
    else 0.0
  in
  (* Propagation proceeds while the server moves on to the next packet:
     the packet joins the in-flight ring, due [delay + extra] from now. *)
  let i = ring_push t ~seq:(Sim.reserve t.sim) pkt in
  Float.Array.unsafe_set t.fl_time i
    (Sim.now t.sim +. (Time.to_s t.delay +. extra));
  ring_settle t;
  start_transmission t

(* Preallocated event kinds for the per-link singleton events: built
   once per link at create, rescheduled forever after. [unwired] fills
   the slots while [create] builds the record the real events carry;
   it is replaced before the link is returned and never scheduled. *)
let tx_kind = Event.define ~name:"link.tx" tx_complete
let anchor_kind = Event.define ~name:"link.anchor" anchor_tick
let deliver_kind = Event.define ~name:"link.deliver" deliver_tick

let unwired =
  Event.define ~name:"link.unwired"
    (fun () -> invalid_arg "Link: unwired event")
    ()

(* --- arrivals ----------------------------------------------------------- *)

(* Consumes the packet: dropped means gone. Freed only after the hook and
   trace have seen it. *)
let drop t pkt =
  t.drops <- t.drops + 1;
  t.life_drops <- t.life_drops + 1;
  emit t ~now:(Sim.now t.sim) Drop pkt;
  (match t.drop_trace with Some v -> Fvec.push v (Sim.now t.sim) | None -> ());
  Packet.free t.arena pkt

let[@alloc.zero] send t pkt =
  t.arrivals <- t.arrivals + 1;
  t.life_arrivals <- t.life_arrivals + 1;
  if not t.up then begin
    (* Down links lose offered packets on the floor, like an unplugged
       cable; queued and in-flight packets are kept. *)
    t.outage_drops <- t.outage_drops + 1;
    drop t pkt
  end
  else begin
    (* Transmissions that finished before this arrival are part of its
       past: realize them before the discipline sees the new packet. *)
    catch_up t ~charge:true;
    let now = Sim.now t.sim in
    let was_empty = Queue_disc.pkt_length t.disc = 0 in
    let size = Packet.size t.arena pkt in
    let ecn = Packet.ecn_capable t.arena pkt in
    match
      (* A1: function-typed field, same contract as [dequeue] above. *)
      (t.disc.Queue_disc.enqueue ~now ~size ~ecn pkt [@lint.allow "A1"])
    with
    | Queue_disc.Reject -> drop t pkt
    | Queue_disc.Accept | Queue_disc.Accept_marked as v ->
        if v = Queue_disc.Accept_marked then begin
          Packet.set_ecn_marked t.arena pkt true;
          t.marks <- t.marks + 1
        end;
        emit t ~now Enqueue pkt;
        note_queue_change t ~now;
        (match t.service with
        | Eager -> if not t.busy then start_transmission t
        | Batched ->
            (* An empty-and-idle server starts this packet immediately;
               otherwise it queues behind the computed schedule. *)
            if was_empty && sched_free t <= now then set_restart_at t now;
            arm_anchor t)
  end

let create ?(jitter = Time.zero) ?(service = Batched) sim ~arena ~name
    ~bandwidth ~delay ~disc =
  if Rate.to_bps bandwidth <= 0.0 then
    invalid_arg "Link.create: bandwidth must be positive";
  if Time.to_s delay < 0.0 then invalid_arg "Link.create: negative delay";
  if Time.to_s jitter < 0.0 then invalid_arg "Link.create: negative jitter";
  let bs = Float.Array.make 3 0.0 in
  Float.Array.set bs b_anchor infinity;
  let t =
    {
      sim;
      name;
      arena;
      service;
      bandwidth;
      delay;
      jitter;
      jitter_rng = Sim_engine.Rng.split (Sim.rng sim);
      disc;
      deliver = (fun _ -> invalid_arg "Link: deliver not wired");
      event_hook = None;
      busy = false;
      up = true;
      tx_pkt = Packet.none;
      tx_done = unwired;
      anchor_ev = unwired;
      bs;
      fl_time = Float.Array.create 0;
      fl_seq = [||];
      fl_pkt = [||];
      fl_head = 0;
      fl_len = 0;
      deliver_ev = unwired;
      life_arrivals = 0;
      life_drops = 0;
      delivered = 0;
      in_flight = 0;
      outage_drops = 0;
      arrivals = 0;
      drops = 0;
      marks = 0;
      bytes_sent = 0;
      window_start = Sim.now sim;
      qmax = 0;
      qavg = Stats.Time_weighted.create ~start:(Sim.now sim) ~value:0.0;
      drop_trace = None;
      queue_trace = None;
    }
  in
  t.tx_done <- tx_kind t;
  t.anchor_ev <- anchor_kind t;
  t.deliver_ev <- deliver_kind t;
  t

let set_up t up =
  if up && not t.up then begin
    t.up <- true;
    (* Resume draining whatever accumulated during the outage. *)
    match t.service with
    | Eager -> if not t.busy then start_transmission t
    | Batched ->
        if Queue_disc.pkt_length t.disc > 0 then begin
          set_restart_at t (Sim.now t.sim);
          arm_anchor t
        end
  end
  else if not up then begin
    (* Realize everything that started before the outage: packets
       mid-transmission still arrive (see .mli). *)
    catch_up t ~charge:true;
    t.up <- false
  end

let is_up t = t.up

let arrivals t = t.arrivals
let drops t = t.drops
let marks t = t.marks
let outage_drops t = t.outage_drops

(* Stats reads first realize pending transmissions so counters reflect
   everything up to [now]; uncharged — observation must not trip a
   budget. *)
let conservation_error t =
  catch_up t ~charge:false;
  let queued = Queue_disc.pkt_length t.disc in
  let accounted = t.life_drops + queued + t.in_flight + t.delivered in
  if t.life_arrivals = accounted then None
  else
    Some
      (Printf.sprintf
         "packet conservation violated: %d arrivals <> %d dropped + %d \
          queued + %d in flight + %d delivered"
         t.life_arrivals t.life_drops queued t.in_flight t.delivered)

let avg_queue_pkts t =
  catch_up t ~charge:false;
  Units.Pkts.v (Stats.Time_weighted.average t.qavg ~now:(Sim.now t.sim))

let max_queue_pkts t =
  catch_up t ~charge:false;
  t.qmax

let utilization t =
  catch_up t ~charge:false;
  let span = Sim.now t.sim -. t.window_start in
  if span <= 0.0 then 0.0
  else float_of_int (8 * t.bytes_sent) /. (Rate.to_bps t.bandwidth *. span)

let drop_rate t =
  if t.arrivals = 0 then 0.0
  else float_of_int t.drops /. float_of_int t.arrivals

let reset_stats t =
  catch_up t ~charge:false;
  t.arrivals <- 0;
  t.drops <- 0;
  t.marks <- 0;
  t.bytes_sent <- 0;
  t.window_start <- Sim.now t.sim;
  t.qmax <- Queue_disc.pkt_length t.disc;
  Stats.Time_weighted.reset t.qavg ~now:(Sim.now t.sim)

let enable_drop_trace t =
  if t.drop_trace = None then t.drop_trace <- Some (Fvec.create ())

let drop_times t =
  match t.drop_trace with
  | Some v -> Fvec.to_array v
  | None -> invalid_arg "Link.drop_times: tracing not enabled"

(* Self-rescheduling sample tick, re-armed until the simulation stops:
   reads the trace vectors back out of the link so the payload stays
   plain data. *)
let queue_trace_kind =
  Event.define_rec ~name:"link.queue-trace" (fun self qt ->
      let t = qt.qt_link in
      catch_up t ~charge:true;
      (match t.queue_trace with
      | Some (times, lengths) ->
          Fvec.push times (Sim.now t.sim);
          Fvec.push lengths (float_of_int (Queue_disc.pkt_length t.disc))
      | None -> ());
      if not (Sim.stopped t.sim) then
        Sim.after t.sim qt.qt_interval (self qt))

let enable_queue_trace t ?(interval = Time.s 0.01) () =
  match t.queue_trace with
  | Some _ -> ()
  | None ->
      t.queue_trace <- Some (Fvec.create (), Fvec.create ());
      Sim.at t.sim
        (Time.s (Sim.now t.sim))
        (queue_trace_kind { qt_link = t; qt_interval = interval })

let queue_at t time =
  let time = Time.to_s time in
  match t.queue_trace with
  | None -> invalid_arg "Link.queue_at: tracing not enabled"
  | Some (times, lengths) ->
      let i = Fvec.lower_bound times time in
      (* We want the last sample at or before [time]. *)
      let i =
        if i < Fvec.length times && Fvec.get times i <= time then i else i - 1
      in
      if i < 0 then 0.0 else Fvec.get lengths i
