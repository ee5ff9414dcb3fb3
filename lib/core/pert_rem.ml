type decision = Hold | Early_response

type params = {
  kappa : float;
  alpha : float;
  tq_ref : Units.Time.t;
  phi : float;
  sample_interval : Units.Time.t;
}

let default_params =
  {
    kappa = 20.0;
    alpha = 0.3;
    tq_ref = Units.Time.s 0.005;
    phi = 1.05;
    sample_interval = Units.Time.s 0.010;
  }

type t = {
  srtt : Srtt.t;
  p : params;
  (* seconds, pre-extracted from [p] so the per-ACK path stays float *)
  tq_ref_s : float;
  sample_interval_s : float;
  decrease_factor : float;
  mutable price : float;
  mutable prev_tq : float;
  mutable next_update : float;
  mutable last_response : float;
  mutable early_responses : int;
}

let create ?(srtt_alpha = 0.99) ?(decrease_factor = 0.35) ~params () =
  if params.phi <= 1.0 then invalid_arg "Pert_rem.create: phi must exceed 1";
  if Units.Time.to_s params.sample_interval <= 0.0 then
    invalid_arg "Pert_rem.create: sample_interval must be positive";
  if decrease_factor <= 0.0 || decrease_factor >= 1.0 then
    invalid_arg "Pert_rem.create: decrease_factor in (0,1)";
  {
    srtt = Srtt.create ~alpha:srtt_alpha ();
    p = params;
    tq_ref_s = Units.Time.to_s params.tq_ref;
    sample_interval_s = Units.Time.to_s params.sample_interval;
    decrease_factor;
    price = 0.0;
    prev_tq = 0.0;
    next_update = neg_infinity;
    last_response = neg_infinity;
    early_responses = 0;
  }

let probability t = Units.Prob.v (1.0 -. (t.p.phi ** -.t.price))
let price t = t.price

let update_price t =
  let tq = Units.Time.to_s (Srtt.queueing_delay t.srtt) in
  t.price <-
    Float.max 0.0
      (t.price
      +. (t.p.kappa
         *. ((t.p.alpha *. (tq -. t.tq_ref_s)) +. (tq -. t.prev_tq))));
  t.prev_tq <- tq

let on_ack t ~now ~rtt ~u =
  Srtt.observe t.srtt rtt;
  if now >= t.next_update then begin
    update_price t;
    t.next_update <-
      (if Float.equal t.next_update neg_infinity then
         now +. t.sample_interval_s
       else Float.max (t.next_update +. t.sample_interval_s) now)
  end;
  if
    now -. t.last_response >= Units.Time.to_s (Srtt.value t.srtt)
    && Units.Prob.sample (probability t) ~u
  then begin
    t.last_response <- now;
    t.early_responses <- t.early_responses + 1;
    Early_response
  end
  else Hold

let decrease_factor t = t.decrease_factor
let early_responses t = t.early_responses
let note_loss t ~now = t.last_response <- now
