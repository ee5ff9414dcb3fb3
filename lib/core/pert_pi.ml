type decision = Hold | Early_response
type gains = { gamma : float; beta : float }

let gains_of_pi ~k ~m ~delta =
  { gamma = (k /. m) +. (k *. delta /. 2.0); beta = (k /. m) -. (k *. delta /. 2.0) }

type t = {
  srtt : Srtt.t;
  gains : gains;
  target_delay : float;
  sample_interval : float;
  decrease_factor : float;
  mutable p : float;
  mutable prev_err : float;
  mutable next_update : float;
  mutable last_response : float;
}

let create ?(alpha = 0.99) ?(decrease_factor = 0.35) ~gains ~target_delay
    ~sample_interval () =
  let target_delay = Units.Time.to_s target_delay in
  let sample_interval = Units.Time.to_s sample_interval in
  if decrease_factor <= 0.0 || decrease_factor >= 1.0 then
    invalid_arg "Pert_pi.create: decrease_factor in (0,1)";
  if sample_interval <= 0.0 then
    invalid_arg "Pert_pi.create: sample_interval must be positive";
  {
    srtt = Srtt.create ~alpha ();
    gains;
    target_delay;
    sample_interval;
    decrease_factor;
    p = 0.0;
    prev_err = 0.0;
    next_update = neg_infinity;
    last_response = neg_infinity;
  }

(* NaN-safe: a non-finite PI state must not escape as a probability. *)
let clamp01 x = if x >= 1.0 then 1.0 else if x >= 0.0 then x else 0.0

let update_probability t =
  let err = Units.Time.to_s (Srtt.queueing_delay t.srtt) -. t.target_delay in
  t.p <- clamp01 (t.p +. (t.gains.gamma *. err) -. (t.gains.beta *. t.prev_err));
  t.prev_err <- err

let on_ack t ~now ~rtt ~u =
  Srtt.observe t.srtt rtt;
  if now >= t.next_update then begin
    update_probability t;
    t.next_update <-
      (if Float.equal t.next_update neg_infinity then now +. t.sample_interval
       else Float.max (t.next_update +. t.sample_interval) now)
  end;
  if
    now -. t.last_response >= Units.Time.to_s (Srtt.value t.srtt)
    && Units.Prob.sample (Units.Prob.v t.p) ~u
  then begin
    t.last_response <- now;
    Early_response
  end
  else Hold

let probability t = Units.Prob.v t.p
let decrease_factor t = t.decrease_factor
let note_loss t ~now = t.last_response <- now
