(** A small text language for describing simulations, so arbitrary
    topologies (not just the built-in dumbbell) can be run without
    writing OCaml.

    One directive per line; [#] starts a comment. Example:

    {v
    # three-node chain with a PERT flow and web background
    node a
    node r
    node b
    duplex a r bw=100M delay=1ms queue=droptail:10000
    duplex r b bw=10M  delay=20ms queue=red:50
    flow a b cc=pert
    flow a b cc=newreno start=5 total=2000
    web a b sessions=20
    cbr b a rate=1M start=10 stop=20
    run 60
    v}

    Directives:
    - [node NAME]
    - [link SRC DST bw=RATE delay=TIME queue=SCHEME:PKTS] —
      unidirectional
    - [duplex A B bw=RATE delay=TIME queue=SCHEME:PKTS] — both
      directions (independent queues of the same kind)
    - [flow SRC DST cc=SCHEME] with optional [start=TIME],
      [total=PKTS], [ecn], [owd], [delack]
    - [web SRC DST sessions=N]
    - [cbr SRC DST rate=RATE] with optional [start=TIME], [stop=TIME]
    - [seed N]
    - [run TIME] — must be last

    Rates accept [k]/[M]/[G] suffixes (bits/s); times accept [ms]/[s]
    (default seconds).

    A SCHEME is any name {!Experiments.Schemes.of_string} accepts.
    [queue=SCHEME:PKTS] is that scheme's bottleneck queue with a
    [PKTS]-packet buffer, and [cc=SCHEME] is its controller; only the
    ECN flag is set per flow, by [ecn]. The short names read as queues
    and controllers: [droptail], [red], [pi], [rem] and [avq] give those
    queues (RED, PI, REM and AVQ mark ECN-capable packets), and
    [newreno] (or [sack]), [vegas], [pert], [pert-pi], [pert-rem] and
    [pert-avq] give those controllers. Every queue and controller is
    designed for a nominal 100 ms RTT shared by 10 flows: queues at
    their link's rate, controllers at 1000 pkt/s. *)

type t

type report = {
  duration : float;
  flows : (string * Units.Rate.t) list;
      (** per-flow label and goodput, in declaration order *)
  links : (string * float * Units.Pkts.t * int) list;
      (** link name, utilisation, average queue, drops *)
}

val parse : string -> (t, string) result
(** Parse a scenario from source text; the error carries a line number. *)

val parse_and_run : string -> (report, string) result
(** {!parse}, then build and execute the scenario; metrics cover the
    full run. *)

val pp_report : Format.formatter -> report -> unit
