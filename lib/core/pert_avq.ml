type decision = Hold | Early_response

type params = {
  gamma : float;
  v_thresh : Units.Time.t;
  sample_interval : Units.Time.t;
}

let default_params =
  {
    gamma = 0.98;
    v_thresh = Units.Time.s 0.010;
    sample_interval = Units.Time.s 0.010;
  }

type t = {
  srtt : Srtt.t;
  p : params;
  (* seconds, pre-extracted from [p] so the per-ACK path stays float *)
  v_thresh_s : float;
  sample_interval_s : float;
  decrease_factor : float;
  mutable v : float;
  mutable prev_tq : float;
  mutable last_update : float;
  mutable next_update : float;
  mutable last_response : float;
  mutable early_responses : int;
}

(* Below this much estimated queueing delay the real queue is treated as
   idle for the busy-indicator. *)
let idle_eps = 0.0005

let create ?(srtt_alpha = 0.99) ?(decrease_factor = 0.35) ~params () =
  if params.gamma <= 0.0 || params.gamma > 1.0 then
    invalid_arg "Pert_avq.create: gamma in (0,1]";
  if Units.Time.to_s params.sample_interval <= 0.0 then
    invalid_arg "Pert_avq.create: sample_interval must be positive";
  if decrease_factor <= 0.0 || decrease_factor >= 1.0 then
    invalid_arg "Pert_avq.create: decrease_factor in (0,1)";
  {
    srtt = Srtt.create ~alpha:srtt_alpha ();
    p = params;
    v_thresh_s = Units.Time.to_s params.v_thresh;
    sample_interval_s = Units.Time.to_s params.sample_interval;
    decrease_factor;
    v = 0.0;
    prev_tq = 0.0;
    last_update = neg_infinity;
    next_update = neg_infinity;
    last_response = neg_infinity;
    early_responses = 0;
  }

let update t ~now =
  let tq = Units.Time.to_s (Srtt.queueing_delay t.srtt) in
  let dt =
    if Float.equal t.last_update neg_infinity then t.sample_interval_s
    else Float.max 0.0 (now -. t.last_update)
  in
  let busy = tq > idle_eps in
  let dv =
    if busy then tq -. t.prev_tq +. ((1.0 -. t.p.gamma) *. dt)
    else -.(t.p.gamma *. dt)
  in
  t.v <- Float.max 0.0 (t.v +. dv);
  t.prev_tq <- tq;
  t.last_update <- now

let on_ack t ~now ~rtt ~u:_ =
  Srtt.observe t.srtt rtt;
  if now >= t.next_update then begin
    update t ~now;
    t.next_update <-
      (if Float.equal t.next_update neg_infinity then
         now +. t.sample_interval_s
       else Float.max (t.next_update +. t.sample_interval_s) now)
  end;
  if
    t.v > t.v_thresh_s
    && now -. t.last_response >= Units.Time.to_s (Srtt.value t.srtt)
  then begin
    t.last_response <- now;
    t.early_responses <- t.early_responses + 1;
    (* The response drains the virtual burst, like AVQ's mark. *)
    t.v <- 0.0;
    Early_response
  end
  else Hold

let virtual_backlog t = t.v
let decrease_factor t = t.decrease_factor
let early_responses t = t.early_responses
let note_loss t ~now = t.last_response <- now
