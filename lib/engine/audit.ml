type violation = { time : float; subject : string; message : string }

type t = {
  sim : Sim.t;
  interval : float;
  max_kept : int;
  mutable checks : (string * (now:float -> string option)) list;  (* newest first *)
  mutable kept : violation list;  (* newest first *)
  mutable count : int;
  mutable last_tick : float;
}

let report t ~now ~subject message =
  t.count <- t.count + 1;
  if t.count <= t.max_kept then
    t.kept <- { time = now; subject; message } :: t.kept

let tick t () =
  let now = Sim.now t.sim in
  if now < t.last_tick then
    report t ~now ~subject:"sim"
      (Printf.sprintf "clock went backwards: %g after %g" now t.last_tick);
  t.last_tick <- now;
  List.iter
    (fun (subject, check) ->
      match check ~now with
      | Some message -> report t ~now ~subject message
      | None -> ())
    t.checks

(* Self-rescheduling tick: the payload is the audit itself; the next
   tick is scheduled after the checks run, unless the simulation was
   stopped ([Sim.stopped]). *)
let tick_ev =
  Event.define_rec ~name:"audit.tick" (fun self t ->
      tick t ();
      if not (Sim.stopped t.sim) then
        Sim.after t.sim (Units.Time.s t.interval) (self t))

let create ?(interval = Units.Time.s 0.1) ?(max_kept = 100) sim =
  let interval = Units.Time.to_s interval in
  if interval <= 0.0 then invalid_arg "Audit.create: interval must be positive";
  let t =
    {
      sim;
      interval;
      max_kept;
      checks = [];
      kept = [];
      count = 0;
      last_tick = Sim.now sim;
    }
  in
  Sim.at sim (Units.Time.s (Sim.now sim +. interval)) (tick_ev t);
  t

let add_check t ~subject check = t.checks <- (subject, check) :: t.checks

(* A stall check wraps a probe of some progress counter into an ordinary
   check. [None] from the probe means "no progress expected right now"
   and resets the clock; a counter that stays put for [stall_after] of
   simulated time while progress *is* expected is reported exactly once
   per stall (the flag re-arms as soon as the counter moves again). *)
let add_stall_check t ~subject ~stall_after probe =
  let stall_after = Units.Time.to_s stall_after in
  if stall_after <= 0.0 then
    invalid_arg "Audit.add_stall_check: stall_after must be positive";
  let last = ref None in
  let since = ref (Sim.now t.sim) in
  let flagged = ref false in
  add_check t ~subject (fun ~now ->
      match probe () with
      | None ->
          last := None;
          since := now;
          flagged := false;
          None
      | Some mark ->
          if !last <> Some mark then begin
            last := Some mark;
            since := now;
            flagged := false;
            None
          end
          else if (not !flagged) && now -. !since >= stall_after then begin
            flagged := true;
            Some
              (Printf.sprintf
                 "no progress for %.3gs (counter pinned at %d) — stalled \
                  flow / zero-window deadlock?"
                 (now -. !since) mark)
          end
          else None)

let enable_watchdog ?(max_events_per_instant = 1_000_000) t =
  Sim.set_watchdog t.sim ~max_events_per_instant (fun message ->
      report t ~now:(Sim.now t.sim) ~subject:"sim" message;
      Sim.stop t.sim)

let check_finite t ~now ~subject ~what value =
  if Float.is_finite value then true
  else begin
    report t ~now ~subject (Printf.sprintf "%s is non-finite (%g)" what value);
    false
  end

let violations t = List.rev t.kept
let violation_count t = t.count
let ok t = t.count = 0

let summary t =
  if t.count = 0 then "audit: no invariant violations"
  else
    let worst =
      match List.rev t.kept with
      | { time; subject; message } :: _ ->
          Printf.sprintf " (first at t=%g, %s: %s)" time subject message
      | [] -> ""
    in
    Printf.sprintf "audit: %d invariant violation(s)%s" t.count worst
