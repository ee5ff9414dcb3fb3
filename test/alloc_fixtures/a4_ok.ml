(* TNs for A4: the same comparisons written so the compiler emits
   machine compares. An annotated operand specialises [<], a
   constant-constructor variant compares as an int, the clamp returns
   Float.max's float through one comparison, and [Int.max] is
   monomorphic. *)

let within (lo : float) x = lo < x
let[@alloc.zero] admit (lo : float) x = within lo x
let[@alloc.zero] clamp x = if x > 0.0 then x else 0.0
let[@alloc.zero] larger (a : int) b = Int.max a b

type level = Low | High

let[@alloc.zero] is_high (l : level) = l = High
