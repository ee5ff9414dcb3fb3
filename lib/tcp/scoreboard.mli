(** The data sender's SACK scoreboard (RFC 6675): for each sequence
    number in the send window, whether a SACK block has covered it and
    whether it was retransmitted in the current recovery.

    Two bits per number, in a power-of-two byte ring based at the
    cumulative ACK point. The storage is allocated by the first mark
    and doubles as the window needs, so a flow that never sees a SACK
    block allocates nothing. Counts of each bit are kept alongside, so
    {!advance}, {!clear_retx} and {!clear} cost O(1) while nothing is
    marked — the lossless path. *)

type t

val create : unit -> t
(** An empty scoreboard based at sequence number 0. *)

val mark_sacked : t -> int -> bool
(** [mark_sacked t s] records that a SACK block covered [s], and
    returns whether that is news. [s] must be at or above the base.
    @raise Invalid_argument when [s] is below the base. *)

val mark_retx : t -> int -> unit
(** [mark_retx t s] records that [s] was retransmitted in this
    recovery. Same precondition as {!mark_sacked}. *)

val is_marked : t -> int -> bool
(** SACKed or retransmitted: not a hole to retransmit. Numbers below
    the base read as unmarked. *)

val sacked : t -> int
(** Numbers currently marked SACKed. *)

val retransmitted : t -> int
(** Numbers currently marked retransmitted. *)

val capacity : t -> int
(** Numbers the ring covers from its base; 0 before the first mark. *)

val advance : t -> int -> int
(** [advance t ack] moves the base up to the cumulative ACK point
    [ack], unmarking every number in [\[base, ack)], and returns how
    many of them were SACKed — those already left the pipe. A no-op
    returning 0 when [ack] is not above the base. *)

val clear_retx : t -> unit
(** Forget every retransmitted mark: called on entering recovery and on
    the full ACK that ends it. *)

val clear : t -> unit
(** Forget everything, keeping the base: called on a timeout. *)
