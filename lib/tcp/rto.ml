type t = {
  min_rto : float;
  max_rto : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : float;
  mutable backoff_mult : float;
  mutable has_sample : bool;
}

let create ?(min_rto = Units.Time.s 0.2) ?(max_rto = Units.Time.s 60.0)
    ?(initial = Units.Time.s 1.0) () =
  let min_rto = Units.Time.to_s min_rto in
  let max_rto = Units.Time.to_s max_rto in
  let initial = Units.Time.to_s initial in
  {
    min_rto;
    max_rto;
    srtt = 0.0;
    rttvar = 0.0;
    rto = initial;
    backoff_mult = 1.0;
    has_sample = false;
  }

(* [Float.min max_rto (Float.max min_rto x)] without their sign-of-zero
   C calls: the bounds are positive and [x] is never NaN, so the results
   agree. Each branch returns its float directly: the record is mixed,
   so the store boxes only a computed [x], and a bound is stored as the
   box it already has (binding the inner [max] to a name would box it
   on every call). *)
let clamp t x =
  if x > t.min_rto then if x > t.max_rto then t.max_rto else x
  else if t.min_rto > t.max_rto then t.max_rto
  else t.min_rto

let observe t sample =
  let sample = Units.Time.to_s sample in
  if not (Float.is_finite sample) then
    invalid_arg "Rto.observe: non-finite sample";
  if sample <= 0.0 then invalid_arg "Rto.observe: non-positive sample";
  if not t.has_sample then begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.0;
    t.has_sample <- true
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
  end;
  t.backoff_mult <- 1.0;
  t.rto <- clamp t (t.srtt +. (4.0 *. t.rttvar))

let value t =
  let v = t.rto *. t.backoff_mult in
  Units.Time.s (if v > t.max_rto then t.max_rto else v)
let backoff t = t.backoff_mult <- Float.min 64.0 (t.backoff_mult *. 2.0)
let srtt t = if t.has_sample then Some (Units.Time.s t.srtt) else None
