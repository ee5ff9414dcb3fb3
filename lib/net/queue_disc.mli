(** Queue-discipline interface implemented by {!Droptail}, {!Red} and
    {!Pi_queue}.

    A discipline owns the buffered packet handles. [enqueue] decides the
    fate of an arriving packet; on [Accept] and [Accept_marked] the
    discipline has stored it ([Accept_marked] additionally asks the
    caller to set the CE bit). On [Reject] the packet is dropped and not
    stored.

    Disciplines never touch the packet {!Packet.arena}: the two fields a
    verdict can depend on — wire size and ECN capability — arrive as the
    [size] and [ecn] arguments (the {!Link} reads them out once per
    arrival), and byte accounting rides in the FIFO's parallel size
    ring. *)

type verdict = Accept | Accept_marked | Reject

type internals = ..
(** Discipline-private state, surfaced so a concrete module can recover
    its own internals from the closure record for introspection
    ([Red.avg_queue], [Rem.price], ...) without any global registry —
    module-toplevel registries are a replay/determinism hazard (lint rule
    D3). Each implementation extends this type with its own constructor
    and matches on it in its accessors. *)

type internals += Opaque  (** for disciplines with nothing to expose *)

exception Empty
(** Raised by [dequeue] (and {!Fifo.pop_exn}) on an empty queue. The
    exception replaces a [Packet.t option] result: [dequeue] runs once
    per transmitted packet and is on the zero-allocation hot path
    ([@alloc.zero], pertalloc rules A1–A3), where a [Some _] per packet
    is a measurable cost. *)

(** FIFO storage shared by discipline implementations: a power-of-two
    ring of packet handles (unboxed int arrays — handles are immediate)
    that allocates only on amortised doubling. *)
module Fifo : sig
  type q

  val create : unit -> q

  val push : q -> Packet.t -> size:int -> unit
  (** [size] is remembered for {!byte_length} accounting. *)

  val pop_exn : q -> Packet.t
  (** @raise Empty when the queue holds no packets. *)

  val pkts : q -> int
end

type t = {
  name : string;
  enqueue : now:float -> size:int -> ecn:bool -> Packet.t -> verdict;
      (** [size] is the packet's wire size in bytes, [ecn] whether it is
          ECN-capable — passed in so the discipline needs no arena. *)
  dequeue : now:float -> Packet.t;  (** @raise Empty when nothing is buffered *)
  fifo : Fifo.q;
      (** the buffered packets: every discipline keeps them in one FIFO,
          which is the single source of the queue's length *)
  capacity_pkts : int;  (** buffer limit in packets *)
  mutable internals : internals;
      (** see {!type-internals}; mutable only for {!rehydrate} *)
}

val pkt_length : t -> int
(** Packets currently buffered: a read of {!field-fifo}, which the link
    does several times per packet, so it must not cost a call. *)

val byte_length : t -> int
(** Bytes currently buffered. *)

val rehydrate : t -> mk:('st -> internals) -> unit
(** Restore-time repair ({!Sim.Snapshot}): extension constructors do not
    survive [Marshal] (matching compares the constructor slot
    physically, and unmarshalling copies it), so after a snapshot load
    each discipline module rebuilds [internals] with its own live
    constructor around the unmarshalled payload. The payload object is
    passed through untouched, keeping it physically shared with the
    state the discipline's closures captured. Call only through the
    concrete module's [rehydrate] (it knows [mk]'s payload type); never
    on a discipline whose [internals] is a constant constructor. *)
