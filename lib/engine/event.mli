(** Defunctionalized scheduler events.

    A pending event is plain data: a registered kind (static handler,
    shared by every event of the kind) plus a marshalable payload. This
    is what lets {!Sim.Snapshot} checkpoint a live simulation — a
    [unit -> unit] closure hides its captured state, an [Event.t]
    carries it in the open.

    Register kinds at module toplevel, once per kind — never inside a
    per-call constructor (that would rebuild the handler closure per
    entity and put captured state back out of the payload's reach). *)

type t

val define : name:string -> ('a -> unit) -> 'a -> t
(** [define ~name handler] registers an event kind and returns its
    constructor: [ctor payload] is an event that runs
    [handler payload] when executed. [name] identifies the kind in
    diagnostics.
    @raise Invalid_argument on an empty name. *)

val define2 : name:string -> ('a -> int -> unit) -> 'a -> int -> t
(** [define2] is {!define} with an extra unboxed [int] payload slot —
    the per-packet event kinds carry the packet id there, so
    constructing one allocates no box beyond the event itself. *)

val define_rec : name:string -> (('a -> t) -> 'a -> unit) -> 'a -> t
(** [define_rec ~name handler] is {!define} for self-rescheduling
    kinds: [handler] receives the kind's own constructor, so a periodic
    event can schedule its successor without a recursive closure. *)

val declare : name:string -> ('a -> int -> t) * (('a -> int -> unit) -> unit)
(** [declare ~name] splits registration in two: it returns the
    constructor immediately and a [set_handler] to be called once the
    handler's dependencies exist (mutually recursive protocol code).
    Executing an event whose handler was never set fails loudly. *)

val exec : t -> unit
(** Dispatch the event to its kind's handler. *)
