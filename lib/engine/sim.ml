(* The event store behind the loop: a binary heap or a calendar queue.
   Both implement the same (time, seq)-lexicographic contract, so runs
   are byte-identical under either; a direct variant match (predictable
   two-way branch) beats a record of closures on the per-event path.
   Payloads are defunctionalized {!Event.t} records, not closures, so
   every pending event is plain data that {!Snapshot} can write. *)
type sched = S_heap of Event.t Heap.t | S_wheel of Event.t Wheel.t

type t = {
  sched : sched;
  (* scratch for [Heap.pop_min_into]/[Wheel.pop_min_into]: index 0 the
     popped time, index 1 the popped seq. A float write into a
     floatarray is unboxed, so the event loop reads each event's key
     without the boxed-float return a [min_time_exn] call would cost at
     the (non-inlined) module boundary. *)
  scratch : floatarray;
  (* event count mirrored out of the scheduler: the loop tests emptiness
     once per event, and a local int compare beats a cross-module call
     (under --profile dev every module is -opaque, so even
     [Wheel.is_empty] cannot inline). *)
  mutable pending : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable stopped : bool;
  mutable executed : int;
  root_rng : Rng.t;
  (* livelock watchdog: bound on events executed without the clock moving *)
  mutable watchdog : (int * (string -> unit)) option;
  mutable instant_events : int;
  mutable next_id : int;
  (* run budgets: one branch on [budget_armed] per event when disarmed *)
  mutable budget_armed : bool;
  mutable budget_events : int;  (* absolute [executed] threshold; max_int = off *)
  mutable budget_wall_limit : float;  (* allowed wall seconds; infinity = off *)
  mutable budget_wall_start : float;
  mutable wall_countdown : int;  (* events until the next wall-clock sample *)
  (* A budget exhausted by [charge_events] *inside* a handler is recorded
     here and tripped at the next loop top, never mid-event: raising out
     of a half-executed handler would leave the simulation in a state
     that is neither resumable nor snapshottable. [""] = not due. *)
  mutable budget_due : string;
}

exception
  Budget_exceeded of { events : int; now : Units.Time.t; exhausted : string }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { events; now; exhausted } ->
        Some
          (Printf.sprintf
             "Sim.Budget_exceeded (%s after %d events at t=%g)" exhausted
             events
             (Units.Time.to_s now))
    | _ -> None)

let create ?(seed = 42) ?(scheduler = `Wheel) () =
  {
    sched =
      (match scheduler with
      | `Heap -> S_heap (Heap.create ())
      | `Wheel -> S_wheel (Wheel.create ()));
    scratch = Float.Array.make 2 0.0;
    pending = 0;
    clock = 0.0;
    next_seq = 0;
    stopped = false;
    executed = 0;
    root_rng = Rng.create seed;
    watchdog = None;
    instant_events = 0;
    next_id = 0;
    budget_armed = false;
    budget_events = max_int;
    budget_wall_limit = infinity;
    budget_wall_start = 0.0;
    wall_countdown = 0;
    budget_due = "";
  }

let now t = t.clock
let rng t = t.root_rng

let scheduler t = match t.sched with S_heap _ -> `Heap | S_wheel _ -> `Wheel

(* Scheduler dispatch, inlined into the event loop: one predictable
   branch per operation. *)
let[@inline] sched_add t ~time ~seq f =
  t.pending <- t.pending + 1;
  match t.sched with
  | S_heap h -> Heap.add h ~time ~seq f
  | S_wheel w -> Wheel.add w ~time ~seq f

let[@inline] sched_pop_min_into t =
  t.pending <- t.pending - 1;
  match t.sched with
  | S_heap h -> Heap.pop_min_into h t.scratch
  | S_wheel w -> Wheel.pop_min_into w t.scratch

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* The public scheduling API speaks [Units.Time.t]; the clock and heap
   keys stay raw float seconds internally (hot path). *)

(* Every event's tie-break number is drawn here, in scheduling-call
   order. A component that keeps one event record pending on behalf of
   many logical events (a link's delivery ring, a flow's RTO timer)
   draws the number when it would have scheduled, and inserts later
   under it, so its events keep the keys they would have had. *)
let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let[@inline never] in_the_past t time =
  invalid_arg (Printf.sprintf "Sim.at: time %g is before now %g" time t.clock)

(* Inlined, so that [at] costs one call. *)
let[@inline] at_reserved t time ~seq ev =
  let time = Units.Time.to_s time in
  if time < t.clock then in_the_past t time;
  sched_add t ~time ~seq ev

let at t time ev = at_reserved t time ~seq:(reserve t) ev

let after t delay ev =
  let delay = Units.Time.to_s delay in
  if delay < 0.0 then invalid_arg "Sim.after: negative delay";
  at t (Units.Time.of_s (t.clock +. delay)) ev

let stop t = t.stopped <- true
let stopped t = t.stopped

let set_watchdog t ~max_events_per_instant on_trip =
  if max_events_per_instant <= 0 then
    invalid_arg "Sim.set_watchdog: budget must be positive";
  t.watchdog <- Some (max_events_per_instant, on_trip)

let clear_watchdog t = t.watchdog <- None

(* Wall time is sampled once per this many events: a syscall per event
   would dominate the fused peek/pop hot path. *)
let wall_sample_period = 256

let set_budget t ?max_events ?max_wall () =
  (match max_events with
  | Some n when n <= 0 ->
      invalid_arg "Sim.set_budget: max_events must be positive"
  | _ -> ());
  (match max_wall with
  | Some w when Units.Time.to_s w <= 0.0 ->
      invalid_arg "Sim.set_budget: max_wall must be positive"
  | _ -> ());
  if Option.is_none max_events && Option.is_none max_wall then
    invalid_arg "Sim.set_budget: set max_events, max_wall or both";
  t.budget_events <-
    (match max_events with Some n -> t.executed + n | None -> max_int);
  (match max_wall with
  | Some w ->
      t.budget_wall_limit <- Units.Time.to_s w;
      (* Deliberate wall-clock read: the wall budget is a safety valve
         against pathological parameter points, not simulation input — it
         never feeds back into any computed value, only into whether the
         run is cut short with [Budget_exceeded]. *)
      t.budget_wall_start <- (Unix.gettimeofday () [@lint.allow "D2"])
  | None -> t.budget_wall_limit <- infinity);
  t.wall_countdown <- wall_sample_period;
  t.budget_due <- "";
  t.budget_armed <- true

let clear_budget t =
  t.budget_armed <- false;
  t.budget_events <- max_int;
  t.budget_wall_limit <- infinity;
  t.budget_due <- ""

let budget_trip t exhausted =
  raise
    (Budget_exceeded
       { events = t.executed; now = Units.Time.of_s t.clock; exhausted })

let check_budget t =
  if String.length t.budget_due > 0 then begin
    let exhausted = t.budget_due in
    t.budget_due <- "";
    budget_trip t exhausted
  end;
  if t.executed >= t.budget_events then budget_trip t "max_events";
  if t.budget_wall_limit < infinity then begin
    t.wall_countdown <- t.wall_countdown - 1;
    if t.wall_countdown <= 0 then begin
      t.wall_countdown <- wall_sample_period;
      (* A1: the 1-in-256 sampled gettimeofday boxes its float result;
         amortised to well under a word per event by the sampling. *)
      if
        (Unix.gettimeofday () [@lint.allow "D2 A1"]) -. t.budget_wall_start
        > t.budget_wall_limit
      then budget_trip t "max_wall"
    end
  end

(* Batch-unrolled event accounting: a handler that materializes [n]
   logical events inside one scheduled event (batched link service)
   reports them here so [events_executed], the [max_events] budget and
   the wall-clock sampling cadence all count logical events, not
   scheduled ones. An exhausted budget is only *recorded* here — the
   trip itself is deferred to the loop top in [check_budget], because
   raising out of a half-executed handler (an arrival counted but not
   yet enqueued, say) would leave the simulation unresumable and
   unsnapshottable, breaking the Budget_exceeded validity contract. *)
let[@alloc.zero] charge_events t n =
  if n < 0 then invalid_arg "Sim.charge_events: negative count";
  t.executed <- t.executed + n;
  if t.budget_armed && n > 0 then begin
    if t.executed >= t.budget_events && String.length t.budget_due = 0 then
      t.budget_due <- "max_events";
    if t.budget_wall_limit < infinity then begin
      t.wall_countdown <- t.wall_countdown - n;
      if t.wall_countdown <= 0 then begin
        t.wall_countdown <- wall_sample_period;
        (* Same sanctioned sampled read as [check_budget]. *)
        if
          (Unix.gettimeofday () [@lint.allow "D2 A1"]) -. t.budget_wall_start
          > t.budget_wall_limit
          && String.length t.budget_due = 0
        then t.budget_due <- "max_wall"
      end
    end
  end

(* [@lint.allow "A1"]: trips at most once per livelock diagnosis — the
   sprintf and the call through the user's trip callback are error-path
   allocations, never per-event. *)
let[@lint.allow "A1"] watchdog_trip trip n time =
  trip
    (Printf.sprintf
       "livelock suspected: %d events executed at t=%g without the clock \
        advancing"
       n time)

(* The per-event dispatch loop, hoisted out of [run] so it is a static
   toplevel function: as a local [let rec] it was a closure over
   [t]/[horizon] allocated per [run] call, and — more importantly — it
   is the [@alloc.zero] root of the whole engine hot path.

   Fused pop: [pop_min_into] removes the event and delivers its
   (time, seq) key through the scratch floatarray in one scheduler call
   — no [Some _] option, no result tuple, no boxed float return — and
   this loop runs once per simulated packet transmission. Popping
   before the horizon check means the one event that overshoots the
   horizon must be pushed back; re-adding it under its original seq
   restores its exact position (both schedulers order by [(time, seq)]),
   so a later [run] observes the same event order a peek-first loop
   would have. That push-back happens at most once per [run] call —
   cold, so its boxed [Units.Round.trunc] argument is harmless. *)
let[@alloc.zero] rec exec_loop t horizon =
  if (not t.stopped) && t.pending > 0 then begin
    if t.budget_armed then check_budget t;
    let ev = sched_pop_min_into t in
    let time = Float.Array.unsafe_get t.scratch 0 in
    if time > horizon then begin
      t.clock <- horizon;
      let seq = Units.Round.trunc (Float.Array.unsafe_get t.scratch 1) in
      sched_add t ~time ~seq ev
    end
    else begin
      if time > t.clock then t.instant_events <- 0;
      t.clock <- time;
      t.executed <- t.executed + 1;
      t.instant_events <- t.instant_events + 1;
      (match t.watchdog with
      | Some (budget, trip) when t.instant_events = budget + 1 ->
          watchdog_trip trip t.instant_events time
      | _ -> ());
      (* The event record itself is charged where it is built (Link /
         protocol code), not at this indirect dispatch. *)
      Event.exec ev;
      exec_loop t horizon
    end
  end

let run ?until t =
  t.stopped <- false;
  let until = Option.map Units.Time.to_s until in
  let horizon = match until with Some u -> u | None -> infinity in
  exec_loop t horizon;
  if t.stopped then ()
  else
    match until with
    | Some u -> t.clock <- Float.max t.clock u
    | None -> ()

let events_executed t = t.executed
let pending t = t.pending

module Snapshot = struct
  exception Incompatible of string

  let () =
    Printexc.register_printer (function
      | Incompatible msg -> Some ("Sim.Snapshot.Incompatible: " ^ msg)
      | _ -> None)

  let magic = "pert-snap/1"

  (* A snapshot carries Marshal code pointers ([Marshal.Closures]): it
     is only meaningful inside the binary that wrote it. The digest of
     our own executable in the header turns a stale-binary restore into
     a clean [Incompatible] instead of a segfault or silent skew. *)
  let build_digest =
    lazy (Digest.to_hex (Digest.file Sys.executable_name))

  (* Store's atomic-commit convention: write to a temp file in the
     destination directory, then rename — readers (and a restore after a
     mid-write crash) only ever see complete snapshots. *)
  let write_atomic ~path data =
    let dir = Filename.dirname path in
    let tmp = Filename.temp_file ~temp_dir:dir ".snap-" ".tmp" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc data);
        Sys.rename tmp path)

  (* Wall-budget continuity: the absolute [budget_wall_start] is
     meaningless in the restoring process, so the header records how
     much wall time the run had consumed; [load] re-bases the start so
     the budget keeps counting from there, not from zero. A sanctioned
     D2 read for the same reason [set_budget]'s is: it only decides when
     the run is cut short, never what is computed. *)
  let wall_elapsed t =
    if t.budget_wall_limit < infinity then
      (Unix.gettimeofday () [@lint.allow "D2"]) -. t.budget_wall_start
    else 0.0

  let save t ~world ~path =
    let payload = Marshal.to_string (t, world) [ Marshal.Closures ] in
    let header =
      Printf.sprintf "%s %s %s %.17g\n" magic (Lazy.force build_digest)
        (Digest.to_hex (Digest.string payload))
        (wall_elapsed t)
    in
    write_atomic ~path (header ^ payload);
    String.length header + String.length payload

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let load ~path =
    let data = read_file path in
    let nl =
      match String.index_opt data '\n' with
      | Some nl -> nl
      | None -> raise (Incompatible (path ^ ": truncated (no header line)"))
    in
    match String.split_on_char ' ' (String.sub data 0 nl) with
    | [ m; build; digest; elapsed_s ] ->
        if m <> magic then
          raise
            (Incompatible
               (Printf.sprintf "%s: bad magic %S (want %S)" path m magic));
        if build <> Lazy.force build_digest then
          raise
            (Incompatible
               (Printf.sprintf
                  "%s: written by build %s, this binary is %s — snapshots \
                   carry code pointers and only restore into the binary \
                   that wrote them"
                  path build
                  (Lazy.force build_digest)));
        let payload = String.sub data (nl + 1) (String.length data - nl - 1) in
        if Digest.to_hex (Digest.string payload) <> digest then
          raise (Incompatible (path ^ ": payload checksum mismatch"));
        let elapsed =
          match float_of_string_opt elapsed_s with
          | Some e when e >= 0.0 -> e
          | _ -> raise (Incompatible (path ^ ": malformed wall-elapsed field"))
        in
        let t, world = (Marshal.from_string payload 0 : t * _) in
        if t.budget_wall_limit < infinity then
          t.budget_wall_start <-
            (Unix.gettimeofday () [@lint.allow "D2"]) -. elapsed;
        (t, world)
    | _ -> raise (Incompatible (path ^ ": malformed header"))
end
