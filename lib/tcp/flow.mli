(** A TCP-like transfer between two nodes: window-based, ACK-clocked,
    packet-granularity sequencing, immediate ACKs, SACK blocks, NewReno
    fast retransmit/recovery, RTO with backoff, ECN response, and a
    pluggable congestion controller ({!Cc}).

    Hardened against hostile networks: receive-window accounting with
    scaled advertisements (RFC 1323), zero-window persist probing
    (RFC 793/6429) so a closed window can never deadlock a flow, RST
    validation (RFC 5961) so blind forgeries cannot tear a connection
    down, and a checksum-style validity gate that discards corrupted
    segments before any field is interpreted.

    One [Flow.t] owns both endpoints: the sender agent attached at [src]
    and the receiver agent attached at [dst]. *)

type t

type delay_signal =
  [ `Rtt  (** feed the congestion controller round-trip samples (default) *)
  | `Owd
    (** feed it the forward one-way delay, so reverse-path queueing
        cannot trigger early responses (paper Section 7); one-way delays
        are computed from the receiver's ACK timestamps *) ]

val create :
  Netsim.Topology.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  cc:Cc.t ->
  ?ecn:bool ->
  ?total_pkts:int ->
  ?start:Units.Time.t ->
  ?initial_cwnd:float ->
  ?max_cwnd:float ->
  ?delay_signal:delay_signal ->
  ?delayed_acks:bool ->
  ?rcv_buffer:Units.Size.t ->
  ?wscale:int ->
  ?persist:bool ->
  ?rst_validation:bool ->
  ?on_complete:(t -> unit) ->
  unit ->
  t
(** [total_pkts] bounds the transfer (default unbounded, i.e. a long-lived
    FTP source); [start] is the absolute start time (default: now);
    [initial_cwnd] defaults to 2 packets; [ecn] (default false) makes data
    packets ECN-capable and the sender respond to echoes. [on_complete]
    fires once when all [total_pkts] are cumulatively acknowledged.

    [rcv_buffer] is the receive-buffer capacity (default ~1 GiB, large
    enough never to limit the paper's experiments). [wscale] is the peer
    window-scale offer at SYN time: [None] (default) negotiates whatever
    shift the buffer requires; [Some 0] models a peer without the option,
    capping the usable window at 64 KB regardless of buffer size.
    [persist] (default true) enables zero-window probing; disable it only
    to demonstrate the deadlock it prevents. [rst_validation] (default
    true) selects RFC 5961 handling; disabled, any RST with a plausible
    sequence kills the connection. *)

val id : t -> int

(* Kept with no caller that pertscan reads: the benchmark's snapshot
   round trip (bench_e2e/e2e.ml, outside the scanned tree) passes each
   flow's controller to {!Schemes.rehydrate_cc}. *)
val cc : t -> Cc.t [@@lint.allow "S3"]
(** The flow's congestion controller. *)

val cwnd : t -> float
val ssthresh : t -> float
val snd_una : t -> int
val snd_next : t -> int

val pipe : t -> int
(** The sender's estimate of segments in flight (RFC 6675 "pipe"):
    transmissions not yet cumulatively ACKed or SACKed, less the
    presumed-lost originals of recovery retransmissions. New data goes
    out only while it is below the window. *)

val completed : t -> bool

val aborted : t -> bool
(** The connection was torn down by a (validated) RST. *)

val acked_pkts : t -> int
(** Cumulatively acknowledged packets since the last {!reset_stats} —
    the goodput numerator. *)

val goodput_bps : t -> now:float -> Units.Rate.t
(** Goodput (payload bits/s) since the last {!reset_stats}. *)

val reset_stats : t -> unit

val retransmissions : t -> int
val timeouts : t -> int
val loss_events : t -> int
(** Fast-recovery entries plus timeouts (flow-level congestion events). *)

val fast_recoveries : t -> int
(** Fast-recovery entries alone — inflated by a forged dupack storm. *)

val early_responses : t -> int
(** Early (proactive) window reductions applied so far. *)

(** {2 Window scaling and flow control} *)

val wscale : t -> int
(** The negotiated window-scale shift (0-14). *)

val advertised_bytes : t -> Units.Size.t
(** What this endpoint's receiver currently advertises (after scaling
    round-down), i.e. what the peer will believe. *)

val max_outstanding_pkts : t -> int
(** High-water mark of packets in flight — shows whether the scaled
    window actually lifted the 64 KB (65-packet) cap. *)

val pause_reader : t -> unit
(** Stall the receiving application: arriving in-order data accumulates
    in the receive buffer and the advertised window shrinks toward
    zero. *)

val resume_reader : t -> unit
(** Drain the receive buffer and, if the window had closed, send the
    window-update ACK that reopens it. *)

val in_persist : t -> bool
val persist_probes : t -> int
val zero_window_episodes : t -> int

(** {2 RST validation and the validity gate} *)

val abort : t -> unit
(** Active teardown: emit an exact-sequence RST to the peer and abort
    locally. *)

val rsts_received : t -> int
val rsts_accepted : t -> int
val rsts_ignored : t -> int
(** Out-of-window blind RSTs silently dropped. *)

val challenge_acks : t -> int
(** Challenge ACKs sent for in-window (but inexact) RSTs, rate-limited. *)

val corrupt_rejected : t -> int
(** Segments discarded at the validity gate ({!Netsim.Packet.t.corrupted})
    without interpreting any field. *)

val enable_rtt_trace : t -> unit
val rtt_trace : t -> float array * float array * float array
(** [(times, samples, cwnds)] of every per-ACK RTT measurement (and the
    congestion window at that instant) since {!enable_rtt_trace}. *)

(** [delayed_acks] (default [false], as in the paper's simulations) makes
    the receiver acknowledge every second in-order segment, with a 100 ms
    standalone-ACK timer; out-of-order or CE-marked segments are still
    acknowledged immediately, as RFC 3168/5681 require. *)

val enable_loss_trace : t -> unit
val loss_times : t -> float array
(** Times at which {e this flow} detected a loss (fast retransmit or
    timeout) since {!enable_loss_trace}. *)

val stop : t -> unit
(** Halt transmission, cancel the pending RTO and persist timers, and
    detach agents (used for departing flows). A stopped flow never fires
    another timeout or probe. *)

val rto_value : t -> Units.Time.t
(** Current retransmission timeout, including any exponential backoff
    (capped at the {!Rto} maximum, 60 s by default). *)

val audit_check : t -> string option
(** Invariant check for {!Sim_engine.Audit}: cwnd finite and >= 1,
    ssthresh finite and positive, pipe non-negative, send sequence
    ordering intact, persist mode mutually exclusive with outstanding
    data, smoothed RTT finite. Returns a diagnostic including
    {!debug_state} on violation. *)

val liveness : t -> int option
(** Progress counter for {!Sim_engine.Audit.add_stall_check}. [None]
    while no progress is expected (not started, finished, data
    outstanding with the RTO armed, or probing in persist mode);
    [Some marks] when the flow should be actively moving — a pinned
    counter is a stalled flow. *)

