(* TP for A2: returning [Some f] where [f : float] boxes the float and
   allocates the option cell, directly in the annotated body. *)

let[@alloc.zero] lookup (arr : float array) i =
  if i >= 0 && i < Array.length arr then Some arr.(i) else None

(* TP for A2: a float read out of a float array and let-bound stays
   unboxed, so storing it into a mixed-representation record boxes it
   anew (the shape of the event loop's clock store). *)

type clock = { mutable now : float; mutable ticks : int }

let[@alloc.zero] advance c (times : floatarray) i =
  let time = Float.Array.unsafe_get times i in
  c.now <- time;
  c.ticks <- c.ticks + 1
