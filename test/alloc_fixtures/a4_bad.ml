(* TPs for A4: C calls that only compare numbers, on the zero-alloc
   path. [within]'s [<] is at a type variable, so it compiles to
   compare_val even when [admit] passes floats; [Float.max] calls
   caml_signbit; [Stdlib.max] compares generically at every type. *)

let within lo x = lo < x
let[@alloc.zero] admit (lo : float) x = within lo x
let[@alloc.zero] clamp x = Float.max 0.0 x
let[@alloc.zero] larger (a : int) b = max a b
