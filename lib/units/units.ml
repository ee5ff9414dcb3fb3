(* Each wrapper is [private float] (or [private int]) in the interface:
   construction goes through the smart constructors below, reading back is
   a no-op, and every operation compiles to the same instruction the bare
   representation would — the dimension exists only at type-checking
   time. Keep the functions tiny so the non-flambda inliner erases the
   calls in hot paths. It does in the default build, the release
   profile that dune-workspace selects (-inline 60, root dune): Flow
   and Link compile to no call into Units. Under --profile dev every
   module is -opaque, and each wrapper stays a real call that boxes its
   float. *)

module Time = struct
  type t = float

  let zero = 0.0

  let s x =
    if Float.is_nan x then invalid_arg "Units.Time.s: NaN";
    x

  let of_s = s
  let to_s t = t

  let ms x = s (x *. 1e-3)
  let to_ms t = t *. 1e3
  let us x = s (x *. 1e-6)
  let to_us t = t *. 1e6
  let add a b = a +. b
  let sub a b = a -. b
  let scale k t = k *. t
  let ratio a b = a /. b
  let min = Float.min
  let max = Float.max
  let equal = Float.equal
  let compare = Float.compare
  let is_finite = Float.is_finite
  let pp fmt t = Format.fprintf fmt "%gs" t
end

module Rate = struct
  type t = float

  let bps x =
    if Float.is_nan x then invalid_arg "Units.Rate.bps: NaN";
    x

  let to_bps t = t
  let mbps x = bps (x *. 1e6)
  let to_mbps t = t /. 1e6
  let scale k t = k *. t
  let ratio a b = a /. b
  let to_pps t ~pkt_bytes = t /. (8.0 *. float_of_int pkt_bytes)
  let equal = Float.equal
  let compare = Float.compare
  let pp fmt t = Format.fprintf fmt "%gbit/s" t
end

module Size = struct
  type t = int

  let bytes b = b
  let to_bytes t = t
  let zero = 0
  let add a b = a + b
  (* The annotations matter: the .mli's [t] does not reach the
     implementation, so an unannotated [min]/[max] would be polymorphic
     and each use would call [caml_lessequal] instead of one machine
     compare ([sub]'s [a - b] pins it to int anyway). *)
  let sub (a : int) b = if a <= b then 0 else a - b
  let min (a : int) b = if a <= b then a else b
  let max (a : int) b = if a >= b then a else b
  let compare = Int.compare
  let equal = Int.equal
  let bits t = float_of_int (8 * t)
  let tx_time t rate = Time.of_s (float_of_int (8 * t) /. rate)
  let pp fmt t = Format.fprintf fmt "%dB" t
end

module Pkts = struct
  type t = float

  let v x =
    if Float.is_nan x then invalid_arg "Units.Pkts.v: NaN";
    if x < 0.0 then 0.0 else x

  let of_int n = float_of_int n
  let to_float t = t
  let add a b = a +. b
  let scale k t = k *. t
  let ratio a b = a /. b
  let compare = Float.compare
  let pp fmt t = Format.fprintf fmt "%gpkt" t
end

module Prob = struct
  type t = float

  let v x =
    if Float.is_nan x then invalid_arg "Units.Prob.v: NaN";
    if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

  let zero = 0.0
  let one = 1.0
  let to_float t = t
  let is_zero t = Float.equal t 0.0
  let positive t = t > 0.0
  let complement t = 1.0 -. t
  let scale k t = v (k *. t)
  let sample (t : float) ~u = u < t (* annotated: see [Size.min] *)
  let equal = Float.equal
  let compare = Float.compare
  let pp fmt t = Format.fprintf fmt "%g" t
end

module Round = struct
  (* The one place bare truncation is allowed (lint rule N3); every other
     lib/ call site must name its rounding through these. *)
  let[@inline] trunc x = int_of_float x
  let[@inline] floor x = int_of_float (Float.floor x)
  let[@inline] ceil x = int_of_float (Float.ceil x)
  let[@inline] nearest x = int_of_float (Float.round x)
end
