module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module Fvec = Sim_engine.Fvec
module Packet = Netsim.Packet
module Node = Netsim.Node
module Topology = Netsim.Topology
module Size = Units.Size
module W = Tcp_window

type delay_signal = [ `Rtt | `Owd ]

(* The RTO timer's float plane (a [floatarray], so stores never box):
   the deadline of the latest restart, and the time of the flow's
   pending timer event — infinity when none is pending. *)
let r_deadline = 0
let r_pending = 1

(* One full-sized segment, as charged against the receive buffer. *)
let seg_bytes = Size.bytes Packet.mss

(* Persist probes back off exponentially from the current RTO up to the
   classic 60 s ceiling (RFC 793 / RFC 6429). *)
let persist_ceiling = Units.Time.s 60.0
let persist_backoff_limit = 6

(* RFC 5961 recommends rate-limiting challenge ACKs so a blind attacker
   cannot turn the validation itself into an amplifier. *)
let challenge_min_gap = Units.Time.s 0.05

(* Window decrease on an ECN echo: RFC 3168 halves the window, as for a
   loss, whatever the controller. *)
let ecn_beta = 0.5

(* Pure ACKs (window updates, probe responses, challenge ACKs) echo no
   timestamp: NaN makes every RTT/OWD sample comparison fail, so they can
   never pollute the estimator. *)
let no_ts_echo = Float.nan

(* Receiver-side set of out-of-order intervals [(first, last_exclusive)],
   sorted, disjoint, all strictly above rcv_next. The [int] annotations
   keep the comparisons machine compares: unannotated, [consume] and
   [containing] would compare through [compare_val]. For the same reason
   callers test the list and option results by shape ([List.is_empty],
   [Option.is_some]), never with a polymorphic [<>]. *)
module Intervals = struct
  let rec insert (seq : int) = function
    | [] -> [ (seq, seq + 1) ]
    | ((lo, hi) :: rest) as all ->
        if seq + 1 < lo then (seq, seq + 1) :: all
        else if seq + 1 = lo then (seq, hi) :: rest
        else if seq <= hi then
          if seq = hi then merge_forward (lo, hi + 1) rest
          else all (* duplicate *)
        else (lo, hi) :: insert seq rest

  and merge_forward (lo, hi) = function
    | (lo2, hi2) :: rest when lo2 = hi -> merge_forward (lo, hi2) rest
    | rest -> (lo, hi) :: rest

  (* Advance the cumulative point through any interval starting at [next];
     returns (new_next, remaining_intervals). *)
  let consume (next : int) = function
    | (lo, hi) :: rest when lo = next -> (hi, rest)
    | intervals -> (next, intervals)

  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

  let rec containing (seq : int) = function
    | [] -> None
    | (lo, hi) :: rest ->
        if seq >= lo && seq < hi then Some (lo, hi) else containing seq rest
end

type t = {
  sim : Sim.t;
  id : int;
  src : Node.t;
  dst : Node.t;
  cc : Cc.t;
  ecn : bool;
  delay_signal : delay_signal;
  arena : Packet.arena;
  rng : Sim_engine.Rng.t;
  window : Cc.Window.t;
  max_cwnd : float;
  total : int option;
  on_complete : t -> unit;
  rto : Rto.t;
  persist_enabled : bool;
  rst_validation : bool;
  wnd_scale : W.Scale.t;  (** negotiated at SYN time, both directions *)
  (* sender *)
  mutable snd_una : int;
  mutable snd_next : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recovery_point : int;
  mutable pipe : int;  (** estimate of packets in flight *)
  mutable max_sent : int;  (** highest sequence ever transmitted + 1 *)
  mutable max_sacked : int;  (** highest SACKed sequence, -1 if none *)
  mutable retx_scan : int;  (** next hole candidate during recovery *)
  scoreboard : Scoreboard.t;  (** SACKed, and retransmitted this recovery *)
  (* RTO timer, one pending event per flow: see [schedule_rto] *)
  rto_plane : floatarray;  (** [r_deadline], [r_pending] *)
  mutable rto_seq : int;  (** reserved tie-break of the deadline *)
  mutable rto_armed : bool;
  mutable rto_pending_seq : int;  (** key seq of the pending event *)
  mutable rto_gen : int;  (** newest scheduled event; older ones are stale *)
  mutable peer_adv : W.Adv.t;  (** last window advertisement from the peer *)
  mutable in_persist : bool;  (** zero-window persist mode *)
  mutable persist_gen : int;  (** cancels stale persist timers *)
  mutable persist_backoff : int;  (** probe-interval doubling exponent *)
  mutable last_reduction : float;  (** last window cut of any kind *)
  mutable started : bool;
  mutable stopped : bool;
  mutable completed : bool;
  mutable aborted : bool;  (** torn down by a (validated) RST *)
  (* receiver *)
  delayed_acks : bool;
  rcv_space : W.t;  (** receive-buffer occupancy and advertisement *)
  mutable reader_paused : bool;
  mutable unread_pkts : int;  (** in-order segments the app has not read *)
  mutable rcv_next : int;
  mutable ooo : (int * int) list;
  mutable pending_acks : int;  (** in-order segments not yet acknowledged *)
  mutable delack_gen : int;  (** cancels stale delayed-ACK timers *)
  mutable last_challenge : float;  (** challenge-ACK rate limiter *)
  (* stats *)
  mutable acked_pkts : int;
  mutable window_start : float;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable fast_recoveries : int;
  mutable early_responses : int;
  mutable progress_marks : int;  (** liveness counter for the watchdog *)
  mutable max_outstanding_pkts : int;
  mutable persist_probes : int;
  mutable zero_window_episodes : int;
  mutable rcv_wnd_drops : int;  (** in-window data rejected: buffer full *)
  mutable rsts_received : int;
  mutable rsts_accepted : int;
  mutable rsts_ignored : int;  (** out-of-window blind RSTs dropped *)
  mutable challenge_acks : int;
  mutable challenges_suppressed : int;
  mutable corrupt_rejected : int;  (** segments failing the validity gate *)
  mutable rtt_trace : (Fvec.t * Fvec.t * Fvec.t) option;
  mutable loss_trace : Fvec.t option;
}

let id t = t.id
let cc t = t.cc
let cwnd t = t.window.Cc.Window.cwnd
let ssthresh t = t.window.Cc.Window.ssthresh
let snd_una t = t.snd_una
let snd_next t = t.snd_next
let pipe t = t.pipe
let completed t = t.completed
let aborted t = t.aborted
let acked_pkts t = t.acked_pkts

let goodput_bps t ~now =
  let span = now -. t.window_start in
  Units.Rate.bps
    (if span <= 0.0 then 0.0
     else float_of_int (t.acked_pkts * 8 * Packet.mss) /. span)

let reset_stats t =
  t.acked_pkts <- 0;
  t.window_start <- Sim.now t.sim

let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
let loss_events t = t.fast_recoveries + t.timeouts
let fast_recoveries t = t.fast_recoveries
let early_responses t = t.early_responses
let persist_probes t = t.persist_probes
let zero_window_episodes t = t.zero_window_episodes
let rsts_received t = t.rsts_received
let rsts_accepted t = t.rsts_accepted
let rsts_ignored t = t.rsts_ignored
let challenge_acks t = t.challenge_acks
let corrupt_rejected t = t.corrupt_rejected
let in_persist t = t.in_persist
let max_outstanding_pkts t = t.max_outstanding_pkts
let wscale t = W.Scale.to_int t.wnd_scale

let enable_rtt_trace t =
  if t.rtt_trace = None then
    t.rtt_trace <- Some (Fvec.create (), Fvec.create (), Fvec.create ())

let rtt_trace t =
  match t.rtt_trace with
  | Some (times, samples, cwnds) ->
      (Fvec.to_array times, Fvec.to_array samples, Fvec.to_array cwnds)
  | None -> invalid_arg "Flow.rtt_trace: tracing not enabled"

let enable_loss_trace t =
  if t.loss_trace = None then t.loss_trace <- Some (Fvec.create ())

let loss_times t =
  match t.loss_trace with
  | Some v -> Fvec.to_array v
  | None -> invalid_arg "Flow.loss_times: tracing not enabled"

let note_loss_event t =
  match t.loss_trace with
  | Some v -> Fvec.push v (Sim.now t.sim)
  | None -> ()

let outstanding t = t.snd_next - t.snd_una

let has_data t =
  match t.total with None -> true | Some n -> t.snd_next < n

(* [Float.min], minus its C call: the two agree on every input here —
   the window is never NaN, and [max_cwnd] is positive, so no signed
   zero reaches the tie. The same holds for the rewritten [Float.min]/
   [Float.max] calls in Rto, Srtt and Link (pertalloc rule A4). *)
let effective_cwnd t =
  let cwnd = t.window.Cc.Window.cwnd in
  if t.max_cwnd > cwnd then cwnd else t.max_cwnd

(* --- window accounting -------------------------------------------------- *)

(* The peer's usable receive window, in whole packets: its last scaled
   advertisement, decoded through the negotiated shift. All byte-level
   arithmetic stays inside Tcp_window (lint rule W1). *)
let peer_limit_pkts t =
  Size.to_bytes (W.Adv.decode ~scale:t.wnd_scale t.peer_adv) / Packet.mss

(* New data may only be sent while it fits the peer's window; data below
   snd_next was within an earlier advertisement and may always be
   retransmitted. *)
let window_allows_new t = outstanding t < peer_limit_pkts t


let advertised_bytes t =
  W.Adv.decode ~scale:(W.scale t.rcv_space) (W.advertised t.rcv_space)

(* --- transmission ------------------------------------------------------ *)

(* In-flight accounting ("pipe", RFC 6675 spirit): every transmission adds
   a packet to the pipe; SACKed and cumulatively ACKed segments leave it as
   ACKs arrive; a fast-recovery hole retransmission additionally removes
   the presumed-lost original (handled at the call site in [try_send]). *)

let send_data t ~seq ~retransmit =
  let pkt =
    Packet.data t.arena ~flow:t.id ~src:(Node.id t.src)
      ~dst:(Node.id t.dst) ~seq ~ecn:t.ecn ~retransmit ~now:(Sim.now t.sim) ()
  in
  if retransmit then t.retransmissions <- t.retransmissions + 1;
  t.pipe <- t.pipe + 1;
  t.progress_marks <- t.progress_marks + 1;
  if seq >= t.max_sent then t.max_sent <- seq + 1;
  Node.receive t.src pkt

(* Next hole below the recovery point that is eligible for retransmission:
   not SACKed, not already retransmitted this recovery, and presumed lost
   by the RFC 6675 "IsLost" rule (approximated as: at least DupThresh = 3
   sequence numbers above it have been SACKed — with in-order SACK arrival
   the sacked prefix is contiguous, so the highest SACKed sequence is an
   accurate proxy). Without this check the sender would "recover" segments
   whose SACKs are merely still in flight. *)
let next_hole t =
  let rec go s =
    if s >= t.recovery_point then None
    else if Scoreboard.is_marked t.scoreboard s then go (s + 1)
    else if s + 3 > t.max_sacked then None (* not yet presumed lost *)
    else Some s
  in
  let from = Int.max t.retx_scan t.snd_una in
  match go from with
  | Some s ->
      t.retx_scan <- s;
      Some s
  | None -> None

(* The RTO and persist timers are declared before the mutually recursive
   sender block that both schedules and handles them; the handlers are
   installed right after it. A generation counter rides in the event's
   unboxed int slot, so a pending timer marshals as (flow, gen) and the
   stale-timer test works across a snapshot/restore. *)
let rto_ev, set_rto_ev = Event.declare ~name:"flow.rto"
let persist_ev, set_persist_ev = Event.declare ~name:"flow.persist"

let[@inline] rto_deadline t = Float.Array.unsafe_get t.rto_plane r_deadline
let[@inline] rto_pending t = Float.Array.unsafe_get t.rto_plane r_pending

let[@inline] set_rto_pending t v =
  Float.Array.unsafe_set t.rto_plane r_pending v

(* One RTO event per flow, as ns-2 keeps one timer per agent. Every
   restart (once per new ACK) moves the deadline to [now + rto] and
   draws the tie-break number that scheduling a timer event there would
   take, so the timeout fires at the key [Sim.after] would have given
   it. But a restart schedules nothing while the pending event fires at
   or before the new deadline: that event, firing early, re-adds itself
   at the deadline key (see the handler below). Only a deadline that
   moved earlier than the pending event needs a new one, which makes the
   old one stale. *)
let schedule_rto t =
  set_rto_pending t (rto_deadline t);
  t.rto_pending_seq <- t.rto_seq;
  Sim.at_reserved t.sim
    (Units.Time.s (rto_deadline t))
    ~seq:t.rto_seq (rto_ev t t.rto_gen)

let rec restart_timer t =
  t.rto_seq <- Sim.reserve t.sim;
  Float.Array.unsafe_set t.rto_plane r_deadline
    (Sim.now t.sim +. Units.Time.to_s (Rto.value t.rto));
  t.rto_armed <- true;
  if rto_pending t > rto_deadline t then begin
    t.rto_gen <- t.rto_gen + 1;
    schedule_rto t
  end

(* Disarm only: the pending event lapses when it fires. *)
and cancel_timer t = t.rto_armed <- false

and try_send t =
  if not t.stopped then begin
    let budget = Units.Round.trunc (effective_cwnd t) in
    let had_outstanding = outstanding t > 0 in
    let progress = ref true in
    while !progress && t.pipe < budget do
      progress := false;
      if t.in_recovery then begin
        match next_hole t with
        | Some hole ->
            Scoreboard.mark_retx t.scoreboard hole;
            (* the lost original leaves the pipe as its replacement enters *)
            t.pipe <- Int.max 0 (t.pipe - 1);
            send_data t ~seq:hole ~retransmit:true;
            progress := true
        | None ->
            if has_data t && window_allows_new t then begin
              send_data t ~seq:t.snd_next ~retransmit:false;
              t.snd_next <- t.snd_next + 1;
              progress := true
            end
      end
      else if has_data t && window_allows_new t then begin
        (* below max_sent only after a timeout rewind: go-back-N resend *)
        send_data t ~seq:t.snd_next ~retransmit:(t.snd_next < t.max_sent);
        t.snd_next <- t.snd_next + 1;
        progress := true
      end
    done;
    if outstanding t > t.max_outstanding_pkts then
      t.max_outstanding_pkts <- outstanding t;
    if outstanding t > 0 && not had_outstanding then restart_timer t;
    (* Zero-window detection: everything is acknowledged, data is
       waiting, and the peer advertises no room. Without persist probes
       this state is a deadlock — the window update that reopens it can
       be lost, or (clamp attack) may never have existed. *)
    if
      t.persist_enabled && (not t.in_persist)
      && outstanding t = 0 && has_data t
      && peer_limit_pkts t = 0
    then enter_persist t
  end

and on_timeout t =
  t.timeouts <- t.timeouts + 1;
  note_loss_event t;
  Rto.backoff t.rto;
  let w = t.window in
  w.Cc.Window.ssthresh <- Float.max 2.0 (effective_cwnd t /. 2.0);
  w.Cc.Window.cwnd <- 1.0;
  w.Cc.Window.in_slow_start <- true;
  t.in_recovery <- false;
  t.dupacks <- 0;
  Scoreboard.clear t.scoreboard;
  t.max_sacked <- -1;
  (* Go-back-N: rewind and let the window clock out retransmissions. *)
  t.snd_next <- t.snd_una;
  t.pipe <- 0;
  t.cc.Cc.on_loss ~now:(Sim.now t.sim);
  t.last_reduction <- Sim.now t.sim;
  try_send t;
  (* try_send may have moved the flow into persist mode (window closed at
     the moment of the timeout); the RTO must then stay cancelled — the
     two timers never run together (see DESIGN.md). *)
  if not t.in_persist then restart_timer t

(* --- zero-window persist (RFC 793 / RFC 6429) --------------------------- *)

and enter_persist t =
  t.in_persist <- true;
  t.zero_window_episodes <- t.zero_window_episodes + 1;
  (* The retransmission timer is cancelled on the transition: with
     nothing outstanding there is nothing to retransmit, and probe pacing
     must come from the persist backoff alone, never compounded with RTO
     backoff. *)
  cancel_timer t;
  t.persist_backoff <- 0;
  schedule_probe t

and schedule_probe t =
  t.persist_gen <- t.persist_gen + 1;
  let gen = t.persist_gen in
  let interval =
    Float.min
      (Units.Time.to_s persist_ceiling)
      (Units.Time.to_s (Rto.value t.rto)
      *. (2.0 ** float_of_int t.persist_backoff))
  in
  Sim.after t.sim (Units.Time.s interval) (persist_ev t gen)

and send_probe t =
  t.persist_probes <- t.persist_probes + 1;
  t.progress_marks <- t.progress_marks + 1;
  let pkt =
    Packet.probe t.arena ~flow:t.id ~src:(Node.id t.src)
      ~dst:(Node.id t.dst) ~seq:t.snd_next ~now:(Sim.now t.sim) ()
  in
  Node.receive t.src pkt

and exit_persist t =
  if t.in_persist then begin
    t.in_persist <- false;
    t.persist_gen <- t.persist_gen + 1 (* cancel the pending probe *)
  end

(* --- teardown ----------------------------------------------------------- *)

and abort_connection t =
  if not t.stopped then begin
    t.aborted <- true;
    t.stopped <- true;
    cancel_timer t;
    exit_persist t;
    t.delack_gen <- t.delack_gen + 1;
    Node.detach_agent t.src ~flow:t.id;
    Node.detach_agent t.dst ~flow:t.id
  end

(* Timer handlers, installed now that the recursive sender block exists.
   An RTO event that a newer one replaced does nothing. The pending one
   either fires before the deadline key, and re-adds itself there, or at
   exactly that key, where the timeout is due. *)
let () =
  set_rto_ev (fun t gen ->
      if gen = t.rto_gen then
        if not t.rto_armed then set_rto_pending t infinity
        else if t.rto_pending_seq <> t.rto_seq then schedule_rto t
        else begin
          set_rto_pending t infinity;
          t.rto_armed <- false;
          if (not t.stopped) && outstanding t > 0 then on_timeout t
        end);
  set_persist_ev (fun t gen ->
      if gen = t.persist_gen && t.in_persist && not t.stopped then begin
        send_probe t;
        if t.persist_backoff < persist_backoff_limit then
          t.persist_backoff <- t.persist_backoff + 1;
        schedule_probe t
      end)

let start_ev =
  Event.define ~name:"flow.start" (fun t ->
      t.started <- true;
      try_send t)

(* --- sender ------------------------------------------------------------ *)

(* Returns how many previously unknown segments the blocks SACK. A block
   reports data the peer received (RFC 2018), which lies in
   [snd_una, max_sent): each is clamped to that range first, so a forged
   block can neither free pipe space for data never sent nor cost more
   than the send window to walk. *)
let rec record_sack t fresh = function
  | [] -> fresh
  | (lo, hi) :: rest ->
      let hi = Int.min hi t.max_sent in
      record_sack t (sack_range t (Int.max lo t.snd_una) hi fresh) rest

and sack_range t s hi fresh =
  if s >= hi then fresh
  else if Scoreboard.mark_sacked t.scoreboard s then begin
    if s > t.max_sacked then t.max_sacked <- s;
    sack_range t (s + 1) hi (fresh + 1)
  end
  else sack_range t (s + 1) hi fresh

let apply_reduction t factor ~now =
  let w = t.window in
  w.Cc.Window.cwnd <- Float.max 1.0 ((1.0 -. factor) *. w.Cc.Window.cwnd);
  w.Cc.Window.ssthresh <- Float.max 2.0 w.Cc.Window.cwnd;
  w.Cc.Window.in_slow_start <- false;
  t.last_reduction <- now

let enter_recovery t ~now =
  t.in_recovery <- true;
  t.recovery_point <- t.snd_next;
  t.retx_scan <- t.snd_una;
  Scoreboard.clear_retx t.scoreboard;
  t.fast_recoveries <- t.fast_recoveries + 1;
  note_loss_event t;
  let w = t.window in
  w.Cc.Window.ssthresh <- Float.max 2.0 (effective_cwnd t /. 2.0);
  w.Cc.Window.cwnd <- w.Cc.Window.ssthresh;
  w.Cc.Window.in_slow_start <- false;
  t.cc.Cc.on_loss ~now;
  t.last_reduction <- now;
  (* try_send (called by the ACK path) clocks out hole retransmissions up
     to the halved window. *)
  restart_timer t

let check_completion t =
  match t.total with
  | Some n when (not t.completed) && t.snd_una >= n ->
      t.completed <- true;
      t.stopped <- true;
      cancel_timer t;
      exit_persist t;
      Node.detach_agent t.src ~flow:t.id;
      Node.detach_agent t.dst ~flow:t.id;
      t.on_complete t
  | _ -> ()

let srtt_estimate t =
  match Rto.srtt t.rto with Some s -> Units.Time.to_s s | None -> 0.1

let handle_early_action t action ~now =
  match action with
  | Cc.No_response -> ()
  | Cc.Reduce factor ->
      if not t.in_recovery then begin
        apply_reduction t factor ~now;
        t.early_responses <- t.early_responses + 1
      end

let on_ack t ~ack ~sack ~ecn_echo ~ts_echo ~wnd_field ~ack_sent_at =
  let now = Sim.now t.sim in
  let rtt =
    let sample = now -. ts_echo in
    if sample > 0.0 then Some (Units.Time.s sample) else None
  in
  (* The controller's delay signal: the RTT itself, or the forward
     one-way delay (data send -> receiver ACK timestamp), which is blind
     to reverse-path queueing. PERT only uses signal minus its observed
     minimum, so the two are interchangeable as long as the signal
     contains the forward queueing delay exactly once. *)
  let signal =
    match t.delay_signal with
    | `Rtt -> rtt
    | `Owd ->
        let owd = ack_sent_at -. ts_echo in
        if owd > 0.0 then Some (Units.Time.s owd) else None
  in
  (match rtt with
  | Some sample ->
      Rto.observe t.rto sample;
      (match t.rtt_trace with
      | Some (times, samples, cwnds) ->
          Fvec.push times now;
          Fvec.push samples (Units.Time.to_s sample);
          Fvec.push cwnds t.window.Cc.Window.cwnd
      | None -> ())
  | None -> ());
  (* Window update (RFC 793 SND.WL* simplified to packet granularity):
     believe any advertisement on an ACK that is not older than snd_una.
     A reopened window ends the persist episode. *)
  if ack >= t.snd_una then t.peer_adv <- W.Adv.of_field wnd_field;
  if t.in_persist && peer_limit_pkts t > 0 then exit_persist t;
  let fresh_sacked = record_sack t 0 sack in
  t.pipe <- Int.max 0 (t.pipe - fresh_sacked);
  (* ECN echo: one multiplicative decrease per RTT, no retransmission. *)
  if
    t.ecn && ecn_echo
    && (not t.in_recovery)
    && now -. t.last_reduction >= srtt_estimate t
  then begin
    apply_reduction t ecn_beta ~now;
    t.cc.Cc.on_loss ~now
  end;
  (* Consult the early-response hook exactly once per ACK (it also feeds
     the controller's RTT signal); the reduction is applied after the
     branch below so recovery transitions can veto it. *)
  let early_action = t.cc.Cc.early t.window ~rtt:signal ~now in
  if ack > t.snd_una then begin
    let newly_acked = ack - t.snd_una in
    t.snd_una <- ack;
    (* A timeout may have rewound snd_next below data still in flight;
       a later ACK for that data must not leave snd_next behind. *)
    if t.snd_next < t.snd_una then t.snd_next <- t.snd_una;
    let purged = Scoreboard.advance t.scoreboard ack in
    (* The purged segments already left the pipe when they were SACKed;
       the rest of the range leaves it now. *)
    t.pipe <- Int.max 0 (t.pipe - (newly_acked - purged));
    (* With nothing outstanding the pipe is empty by definition; this
       also repairs any accounting drift from reordering across a
       timeout. *)
    if outstanding t = 0 then t.pipe <- 0;
    t.dupacks <- 0;
    t.acked_pkts <- t.acked_pkts + newly_acked;
    t.progress_marks <- t.progress_marks + 1;
    if t.in_recovery then begin
      if ack >= t.recovery_point then begin
        (* Full ACK: leave recovery at the halved window. *)
        t.in_recovery <- false;
        Scoreboard.clear_retx t.scoreboard;
        t.window.Cc.Window.cwnd <- t.window.Cc.Window.ssthresh
      end
      (* Partial ACK: try_send below clocks out the next hole(s). *)
    end
    else t.cc.Cc.on_ack t.window ~newly_acked ~rtt ~now;
    if outstanding t > 0 then restart_timer t else cancel_timer t;
    check_completion t
  end
  else if outstanding t > 0 then begin
    (* Duplicate ACK; its SACK info already freed pipe space, so try_send
       below acts as the dupack clock. *)
    t.dupacks <- t.dupacks + 1;
    if (not t.in_recovery) && t.dupacks >= 3 then enter_recovery t ~now
  end;
  handle_early_action t early_action ~now;
  try_send t

(* --- receiver ----------------------------------------------------------- *)

let ack_wnd_field t = W.Adv.to_field (W.advertised t.rcv_space)

(* Acknowledge the data segment with sequence [seq], CE bit [marked] and
   send timestamp [stamp] — scalars, not the packet, because the segment
   itself has already been freed when this runs from a delayed-ACK
   timer. *)
let send_ack t ~seq ~marked ~stamp =
  (* RFC 2018: the first SACK block must cover the most recently received
     segment, so the sender learns about fresh arrivals even when there
     are more than three out-of-order intervals. *)
  let sack =
    match Intervals.containing seq t.ooo with
    | None -> Intervals.take 3 t.ooo
    | Some ((blo, _) as block) ->
        (* the intervals are disjoint: [lo] alone identifies [block] *)
        block
        :: Intervals.take 2 (List.filter (fun (lo, _) -> lo <> blo) t.ooo)
  in
  let ack_pkt =
    Packet.ack t.arena ~flow:t.id ~src:(Node.id t.dst) ~dst:(Node.id t.src)
      ~ack:t.rcv_next ~sack ~ecn_echo:marked ~ts_echo:stamp
      ~window:(ack_wnd_field t) ~now:(Sim.now t.sim) ()
  in
  Node.receive t.dst ack_pkt

(* A standalone ACK with no data to echo: window updates, probe
   responses, challenge ACKs. *)
let send_pure_ack t ~ts_echo =
  let ack_pkt =
    Packet.ack t.arena ~flow:t.id ~src:(Node.id t.dst) ~dst:(Node.id t.src)
      ~ack:t.rcv_next ~sack:(Intervals.take 3 t.ooo) ~ecn_echo:false ~ts_echo
      ~window:(ack_wnd_field t) ~now:(Sim.now t.sim) ()
  in
  Node.receive t.dst ack_pkt

(* The receiving application: by default it reads everything instantly,
   so the buffer never fills; [pause_reader] models a stalled consumer
   and is what closes the window. *)
let drain_reader t =
  if (not t.reader_paused) && t.unread_pkts > 0 then begin
    W.release t.rcv_space (Size.bytes (t.unread_pkts * Packet.mss));
    t.unread_pkts <- 0
  end

let pause_reader t = t.reader_paused <- true

let resume_reader t =
  if t.reader_paused then begin
    t.reader_paused <- false;
    let was_zero = W.Adv.is_zero (W.advertised t.rcv_space) in
    drain_reader t;
    (* Reopening after a zero window must be announced: the sender has
       nothing in flight that would elicit an ACK. *)
    if
      was_zero
      && (not (W.Adv.is_zero (W.advertised t.rcv_space)))
      && not t.stopped
    then send_pure_ack t ~ts_echo:no_ts_echo
  end

(* Delayed-ACK payload: the segment's scalars, never the packet handle —
   the node frees the segment as soon as [on_data] returns. The
   generation guard rides in the event's int slot. *)
type delack = { d_t : t; d_seq : int; d_marked : bool; d_stamp : float }

let delack_ev =
  Event.define2 ~name:"flow.delack" (fun d gen ->
      let t = d.d_t in
      if gen = t.delack_gen && t.pending_acks > 0 then begin
        t.pending_acks <- 0;
        send_ack t ~seq:d.d_seq ~marked:d.d_marked ~stamp:d.d_stamp
      end)

let on_data t ~seq ~marked ~stamp =
  let in_order = seq = t.rcv_next in
  let dup =
    (not in_order)
    && (seq < t.rcv_next || Option.is_some (Intervals.containing seq t.ooo))
  in
  (* Checksum-equivalent admission: a segment only occupies buffer (and
     advances the connection) if the receive window can hold it. *)
  let rejected = (not dup) && not (W.admissible t.rcv_space seg_bytes) in
  if rejected then t.rcv_wnd_drops <- t.rcv_wnd_drops + 1
  else if in_order then begin
    W.occupy t.rcv_space seg_bytes;
    t.rcv_next <- t.rcv_next + 1;
    let next, ooo = Intervals.consume t.rcv_next t.ooo in
    (* segments merged from ooo were charged at their arrival *)
    t.unread_pkts <- t.unread_pkts + 1 + (next - t.rcv_next);
    t.rcv_next <- next;
    t.ooo <- ooo;
    drain_reader t
  end
  else if seq > t.rcv_next then begin
    W.occupy t.rcv_space seg_bytes;
    t.ooo <- Intervals.insert seq t.ooo
  end;
  (* Delayed ACKs: hold back every other in-order ACK behind a 100 ms
     timer; anything out of order, rejected, or CE-marked flushes
     immediately (a rejected segment's dupack carries the closed
     window, which is what throttles the sender). *)
  if
    (not t.delayed_acks)
    || (not in_order) || rejected || marked
    || not (List.is_empty t.ooo)
  then begin
    t.pending_acks <- 0;
    t.delack_gen <- t.delack_gen + 1;
    send_ack t ~seq ~marked ~stamp
  end
  else begin
    t.pending_acks <- t.pending_acks + 1;
    if t.pending_acks >= 2 then begin
      t.pending_acks <- 0;
      t.delack_gen <- t.delack_gen + 1;
      send_ack t ~seq ~marked ~stamp
    end
    else begin
      t.delack_gen <- t.delack_gen + 1;
      Sim.after t.sim (Units.Time.s 0.1)
        (delack_ev
           { d_t = t; d_seq = seq; d_marked = marked; d_stamp = stamp }
           t.delack_gen)
    end
  end

(* A zero-window probe never carries acceptable data; it exists to
   elicit a fresh advertisement. Answer immediately with a pure ACK. *)
let on_probe t ~ts_echo =
  t.pending_acks <- 0;
  t.delack_gen <- t.delack_gen + 1;
  send_pure_ack t ~ts_echo

(* --- RFC 5961 RST validation -------------------------------------------- *)

let send_challenge t =
  let now = Sim.now t.sim in
  if now -. t.last_challenge >= Units.Time.to_s challenge_min_gap then begin
    t.last_challenge <- now;
    t.challenge_acks <- t.challenge_acks + 1;
    send_pure_ack t ~ts_echo:no_ts_echo
  end
  else t.challenges_suppressed <- t.challenges_suppressed + 1

(* A challenge "ACK" from the data-sending endpoint: same rate limiter,
   but the packet originates at the sender side. The peer ignores its
   content — what matters is that a blind attacker cannot tear the
   connection down without echoing it. *)
let send_challenge_from_sender t =
  let now = Sim.now t.sim in
  if now -. t.last_challenge >= Units.Time.to_s challenge_min_gap then begin
    t.last_challenge <- now;
    t.challenge_acks <- t.challenge_acks + 1;
    let pkt =
      Packet.ack t.arena ~flow:t.id ~src:(Node.id t.src)
        ~dst:(Node.id t.dst) ~ack:t.rcv_next ~sack:[] ~ecn_echo:false
        ~ts_echo:no_ts_echo ~window:(ack_wnd_field t) ~now ()
    in
    Node.receive t.src pkt
  end
  else t.challenges_suppressed <- t.challenges_suppressed + 1

(* RST arriving at the data receiver. Exact match on RCV.NXT resets;
   anything else inside the receive window earns a challenge ACK (the
   legitimate peer would answer it with an exact-sequence RST); anything
   outside the window is a blind forgery and is dropped. *)
let on_rst_at_receiver t seq =
  t.rsts_received <- t.rsts_received + 1;
  if not t.rst_validation then begin
    t.rsts_accepted <- t.rsts_accepted + 1;
    abort_connection t
  end
  else if seq = t.rcv_next then begin
    t.rsts_accepted <- t.rsts_accepted + 1;
    abort_connection t
  end
  else begin
    let limit_pkts =
      Int.max 1 (Size.to_bytes (W.available t.rcv_space) / Packet.mss)
    in
    if seq > t.rcv_next && seq <= t.rcv_next + limit_pkts then send_challenge t
    else t.rsts_ignored <- t.rsts_ignored + 1
  end

(* RST arriving at the data sender: its "receive" space is the ACK
   stream, so exact match is SND.UNA and the window is the data in
   flight. *)
let on_rst_at_sender t seq =
  t.rsts_received <- t.rsts_received + 1;
  if not t.rst_validation then begin
    t.rsts_accepted <- t.rsts_accepted + 1;
    abort_connection t
  end
  else if seq = t.snd_una then begin
    t.rsts_accepted <- t.rsts_accepted + 1;
    abort_connection t
  end
  else if seq > t.snd_una && seq <= t.snd_next then
    send_challenge_from_sender t
  else t.rsts_ignored <- t.rsts_ignored + 1

(* --- construction ------------------------------------------------------- *)

let default_rcv_buffer = Size.bytes (W.field_limit lsl W.max_shift)

let create topo ~src ~dst ~cc ?(ecn = false) ?total_pkts ?start
    ?(initial_cwnd = 2.0) ?(max_cwnd = 1_000_000.0) ?(delay_signal = `Rtt)
    ?(delayed_acks = false) ?rcv_buffer ?wscale ?(persist = true)
    ?(rst_validation = true) ?(on_complete = fun _ -> ()) () =
  let sim = Topology.sim topo in
  let flow_id = Sim.fresh_id sim in
  let rcv_capacity =
    match rcv_buffer with Some b -> b | None -> default_rcv_buffer
  in
  (* SYN-time negotiation: the receiver requires the smallest shift that
     makes its buffer advertisable; the sender's offer (if any) caps it.
     [~wscale:0] models a peer without the option: the 64 KB ceiling. *)
  let wnd_scale =
    let required = W.Scale.for_buffer rcv_capacity in
    match wscale with
    | None -> required
    | Some s -> W.Scale.negotiate ~offered:(W.Scale.of_int s) ~required
  in
  let rcv_space = W.create ~scale:wnd_scale ~capacity:rcv_capacity () in
  let t =
    {
      sim;
      id = flow_id;
      src;
      dst;
      cc;
      ecn;
      delay_signal;
      arena = Topology.arena topo;
      rng = Sim_engine.Rng.split (Sim.rng sim);
      window =
        { Cc.Window.cwnd = initial_cwnd; ssthresh = 1e9; in_slow_start = true };
      max_cwnd;
      total = total_pkts;
      on_complete;
      rto = Rto.create ();
      persist_enabled = persist;
      rst_validation;
      wnd_scale;
      snd_una = 0;
      snd_next = 0;
      dupacks = 0;
      in_recovery = false;
      recovery_point = 0;
      pipe = 0;
      max_sent = 0;
      max_sacked = -1;
      retx_scan = 0;
      scoreboard = Scoreboard.create ();
      rto_plane = Float.Array.make 2 infinity;
      rto_seq = 0;
      rto_armed = false;
      rto_pending_seq = 0;
      rto_gen = 0;
      (* the peer's initial advertisement, learned from the SYN *)
      peer_adv = W.advertised rcv_space;
      in_persist = false;
      persist_gen = 0;
      persist_backoff = 0;
      last_reduction = neg_infinity;
      started = false;
      stopped = false;
      completed = false;
      aborted = false;
      delayed_acks;
      rcv_space;
      reader_paused = false;
      unread_pkts = 0;
      rcv_next = 0;
      ooo = [];
      pending_acks = 0;
      delack_gen = 0;
      last_challenge = neg_infinity;
      acked_pkts = 0;
      window_start = Sim.now sim;
      retransmissions = 0;
      timeouts = 0;
      fast_recoveries = 0;
      early_responses = 0;
      progress_marks = 0;
      max_outstanding_pkts = 0;
      persist_probes = 0;
      zero_window_episodes = 0;
      rcv_wnd_drops = 0;
      rsts_received = 0;
      rsts_accepted = 0;
      rsts_ignored = 0;
      challenge_acks = 0;
      challenges_suppressed = 0;
      corrupt_rejected = 0;
      rtt_trace = None;
      loss_trace = None;
    }
  in
  (* Both agents discard corrupted segments at a checksum-style validity
     gate before any field is interpreted — flipped header bits must not
     be able to ack, reset, or reorder anything. Handlers copy the fields
     they need out of the arena; the node frees the packet when they
     return (see {!Node.attach_agent}). *)
  let a = t.arena in
  Node.attach_agent src ~flow:flow_id (fun pkt ->
      if Packet.corrupted a pkt then
        t.corrupt_rejected <- t.corrupt_rejected + 1
      else
        match Packet.kind a pkt with
        | Packet.Ack ->
            if not t.stopped then
              on_ack t ~ack:(Packet.seq a pkt) ~sack:(Packet.sack a pkt)
                ~ecn_echo:(Packet.ecn_echo a pkt)
                ~ts_echo:(Packet.ts_echo a pkt)
                ~wnd_field:(Packet.window a pkt)
                ~ack_sent_at:(Packet.sent_at a pkt)
        | Packet.Rst ->
            if not t.stopped then on_rst_at_sender t (Packet.seq a pkt)
        | Packet.Data | Packet.Probe -> ());
  Node.attach_agent dst ~flow:flow_id (fun pkt ->
      if Packet.corrupted a pkt then
        t.corrupt_rejected <- t.corrupt_rejected + 1
      else
        match Packet.kind a pkt with
        | Packet.Data ->
            on_data t ~seq:(Packet.seq a pkt)
              ~marked:(Packet.ecn_marked a pkt)
              ~stamp:(Packet.sent_at a pkt)
        | Packet.Probe ->
            if not t.stopped then on_probe t ~ts_echo:(Packet.sent_at a pkt)
        | Packet.Rst ->
            if not t.stopped then on_rst_at_receiver t (Packet.seq a pkt)
        | Packet.Ack -> ());
  let start_time =
    match start with Some s -> s | None -> Units.Time.s (Sim.now sim)
  in
  Sim.at sim start_time (start_ev t);
  t

let stop t =
  t.stopped <- true;
  cancel_timer t;
  exit_persist t;
  Node.detach_agent t.src ~flow:t.id;
  Node.detach_agent t.dst ~flow:t.id

(* Active teardown: send an exact-sequence RST to the peer, then abort
   locally. (Both endpoints belong to this [t], so the local abort
   already detaches the peer agent; the RST still crosses the network
   and shows up in link and tracer accounting.) *)
let abort t =
  if not t.stopped then begin
    let pkt =
      Packet.rst t.arena ~flow:t.id ~src:(Node.id t.src)
        ~dst:(Node.id t.dst) ~seq:t.snd_next ~now:(Sim.now t.sim) ()
    in
    Node.receive t.src pkt;
    abort_connection t
  end

let rto_value t = Rto.value t.rto

let debug_state t =
  Printf.sprintf
    "una=%d next=%d pipe=%d cwnd=%.2f ssthresh=%.2f dupacks=%d rec=%b rp=%d sacked=%d stopped=%b persist=%b peer_adv=%d"
    t.snd_una t.snd_next t.pipe t.window.Cc.Window.cwnd
    t.window.Cc.Window.ssthresh t.dupacks t.in_recovery t.recovery_point
    (Scoreboard.sacked t.scoreboard) t.stopped t.in_persist
    (W.Adv.to_field t.peer_adv)

let audit_check t =
  let finite = Float.is_finite in
  let w = t.window in
  let bad what v =
    Some (Printf.sprintf "%s = %g out of range (%s)" what v (debug_state t))
  in
  if (not (finite w.Cc.Window.cwnd)) || w.Cc.Window.cwnd < 1.0 then
    bad "cwnd" w.Cc.Window.cwnd
  else if (not (finite w.Cc.Window.ssthresh)) || w.Cc.Window.ssthresh <= 0.0
  then bad "ssthresh" w.Cc.Window.ssthresh
  else if t.pipe < 0 then bad "pipe" (float_of_int t.pipe)
  else if t.snd_next < t.snd_una then
    Some
      (Printf.sprintf "snd_next %d behind snd_una %d (%s)" t.snd_next
         t.snd_una (debug_state t))
  else if t.in_persist && outstanding t > 0 then
    Some
      (Printf.sprintf "persist mode with %d packets outstanding (%s)"
         (outstanding t) (debug_state t))
  else
    match Option.map Units.Time.to_s (Rto.srtt t.rto) with
    | Some s when (not (finite s)) || s <= 0.0 -> bad "srtt" s
    | _ -> None

(* Liveness view for the audit stall watchdog. [None] marks states where
   no progress is expected or a recovery timer is already armed:
   - not yet started, stopped, completed or aborted;
   - data outstanding (the RTO will fire, with its own capped backoff);
   - persist mode (the probe timer will fire);
   - a bounded transfer with nothing left to send.
   Otherwise the flow should be actively transmitting, and the returned
   counter must keep moving: a zero-window deadlock (persist disabled or
   broken) pins it, and the watchdog flags the flow. *)
let liveness t =
  if (not t.started) || t.stopped || t.completed then None
  else if outstanding t > 0 then None
  else if t.in_persist then None
  else if not (has_data t) then None
  else Some t.progress_marks
