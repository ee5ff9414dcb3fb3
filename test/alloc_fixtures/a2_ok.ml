(* TN for A2: computed float stores into an all-float record. The
   record has the flat (Record_float) representation, so the stores
   write unboxed doubles in place — no boxing, pertalloc stays silent. *)

type cell = { mutable value : float; mutable stamp : float }

let[@alloc.zero] store c x =
  c.value <- x +. 1.0;
  c.stamp <- x *. 0.5

(* TN for A2: a let-bound field read of a mixed record is a pointer to
   a box that already exists; storing it moves the pointer. *)

type clock = { mutable now : float; mutable ticks : int }

let[@alloc.zero] follow c (src : clock) =
  let time = src.now in
  c.now <- time;
  c.ticks <- c.ticks + 1
