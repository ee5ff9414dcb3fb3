(* The EWMA floats live in their own all-float record: mixed with the
   [samples] int the record would lose the flat-float representation and
   the computed store in [observe] would box a float per ACK (pertalloc
   rule A2 — [observe] is on the zero-alloc path of [Pert_red.on_ack]). *)
type floats = { mutable srtt : float; mutable min_rtt : float }
type t = { alpha : float; f : floats; mutable samples : int }

let create ?(alpha = 0.99) () =
  if alpha < 0.0 || alpha >= 1.0 then invalid_arg "Srtt.create: alpha in [0,1)";
  { alpha; f = { srtt = 0.0; min_rtt = infinity }; samples = 0 }

let observe t sample =
  let sample = Units.Time.to_s sample in
  (* A single NaN would poison the EWMA (and min_rtt) forever; reject it
     loudly instead (infinities are caught by the same finiteness test). *)
  if not (Float.is_finite sample) then
    invalid_arg "Srtt.observe: non-finite RTT";
  if sample <= 0.0 then invalid_arg "Srtt.observe: non-positive RTT";
  if t.samples = 0 then t.f.srtt <- sample
  else t.f.srtt <- (t.alpha *. t.f.srtt) +. ((1.0 -. t.alpha) *. sample);
  if sample < t.f.min_rtt then t.f.min_rtt <- sample;
  t.samples <- t.samples + 1

let value t =
  if t.samples = 0 then invalid_arg "Srtt.value: no samples";
  Units.Time.s t.f.srtt

let min_rtt t =
  if t.samples = 0 then invalid_arg "Srtt.min_rtt: no samples";
  Units.Time.s t.f.min_rtt

let queueing_delay t =
  if t.samples = 0 then invalid_arg "Srtt.value: no samples";
  (* [Float.max 0.0 d] without its C call; [>] rather than [>=] keeps
     the positive zero it returns for [d = -0.0]. *)
  let d = t.f.srtt -. t.f.min_rtt in
  Units.Time.s (if d > 0.0 then d else 0.0)

let samples t = t.samples
