(** Calendar-queue event scheduler (Brown 1988, the ns-2 default):
    amortized O(1) insert and extract-min. The bucket count follows the
    pending population; the bucket width follows observed event-time
    density, re-estimated on every resize and, between resizes, every
    2048 distinct-time pops.

    Drop-in alternative to {!Heap}: same API, same keys, and the same
    ordering contract — [(time, seq)] pairs compared lexicographically,
    so events at equal times pop in insertion order and a simulation
    replays byte-identically under either scheduler. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an element with priority [(time, seq)]. [@alloc.zero]: never
    allocates except for amortised node-pool doubling and bucket-ring
    resizing. Times must be finite and non-negative (guaranteed by
    [Sim.at]'s monotonicity check). *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] if empty.

    Convenience API: allocates a tuple and an option per call. Hot
    paths want {!min_time_exn}/{!pop_min_exn}, which allocate
    nothing. *)

exception Empty

val min_time_exn : 'a t -> float
(** Time of the minimum element; amortized O(1), no allocation. Caches
    the located head so a following {!pop_min_exn} is O(1).
    @raise Empty if the queue is empty. *)

val pop_min_exn : 'a t -> 'a
(** Remove the minimum element and return its payload alone — the
    non-allocating fast path of the event loop: no option, no result
    tuple. Read the key first via {!min_time_exn}. The vacated node is
    scrubbed so the GC can reclaim the payload immediately.
    @raise Empty if the queue is empty. *)

val pop_min_into : 'a t -> floatarray -> 'a
(** Fused key+payload pop, identical contract to {!Heap.pop_min_into}:
    time into index 0, seq into index 1 of the caller-owned scratch
    array, payload returned, zero allocations, one call.
    @raise Empty if the queue is empty. *)

val peek_time : 'a t -> float option
(** Time of the minimum element without removing it.

    Convenience API: boxes the float inside an option per call. Hot
    paths should test {!is_empty} and use {!min_time_exn} instead. *)

val clear : 'a t -> unit

val width : 'a t -> float
(** Current bucket width in seconds. Read-only: the queue sets it from
    observed density, and any positive width pops the same order. *)
