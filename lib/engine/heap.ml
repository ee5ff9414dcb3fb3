type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
}

(* Inert filler for data slots >= size (the stdlib Dynarray technique).
   Without it the backing array pins payloads after they leave the heap:
   [Array.make cap x] aliases the first element into every unused slot,
   and a popped slot would keep its old payload (and whatever that
   closure captures) reachable until overwritten.  The filler is an
   immediate, so [Array.make] never commits the array to the flat-float
   representation, and it is never read back at type ['a] — slots >= size
   are write-only. *)
let dummy : 'a. unit -> 'a = fun () -> (Obj.magic 0 [@lint.allow "N2"])

let create ?(capacity = 256) () =
  let capacity = max capacity 1 in
  {
    times = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    data = Array.make capacity (dummy ());
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* [@lint.allow "A1"]: growth allocates three backing arrays, but the
   geometric schedule amortises it to O(1) words per add — the zero-alloc
   contract on [add] deliberately tolerates it (a sized [create] removes
   even that). 4x per step while small, 2x past 64k, same rationale as
   [Wheel.grow_pool]: the discarded intermediates are major-heap garbage
   whose mark/sweep cost short-lived sims pay per run, and 4x leaves
   ~C/3 dead words behind for a pool of capacity C where doubling
   leaves ~2C — but once planes are megabytes the 4x overshoot costs
   more than the copies it saves. *)
let[@lint.allow "A1"] grow t =
  let cap = Int.max 1 (Array.length t.times) in
  let cap' = if cap >= 65536 then 2 * cap else 4 * cap in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let data = Array.make cap' (dummy ()) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.data <- data

(* [lt t i j] : does slot [i] have strictly smaller priority than slot [j]?
   Times are never NaN, so [not (ti > tj)] after [ti < tj] failed is the
   tie test, as in [Wheel.key_lt]. *)
let lt t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || ((not (ti > tj)) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) and sq = t.seqs.(i) and dt = t.data.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.data.(i) <- t.data.(j);
  t.times.(j) <- tm;
  t.seqs.(j) <- sq;
  t.data.(j) <- dt

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && lt t l i then l else i in
  let smallest = if r < t.size && lt t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let[@alloc.zero] add t ~time ~seq x =
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- seq;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

exception Empty

let[@inline] [@alloc.zero] min_time_exn t =
  if t.size = 0 then raise Empty else t.times.(0)

(* Fused, non-allocating pop for the event-loop hot path: no option, no
   result tuple — read the key with [min_time_exn] first if needed. *)
let[@alloc.zero] pop_min_exn t =
  if t.size = 0 then raise Empty;
  let x = t.data.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.times.(0) <- t.times.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.data.(0) <- t.data.(n);
    sift_down t 0
  end;
  (* Blank the vacated slot so the popped payload (and whatever its
     closure captures) becomes collectable immediately. *)
  t.data.(n) <- dummy ();
  x

(* One-call fused key+payload pop for the event loop: the popped event's
   time lands in [out].{0} and its seq in [out].{1} (exact as a float for
   any seq below 2^53). A float write into a caller-owned scratch
   floatarray is unboxed, so — unlike [min_time_exn]'s return value at a
   non-inlined call boundary — reading the key costs no allocation. *)
let[@alloc.zero] pop_min_into t out =
  if t.size = 0 then raise Empty;
  Float.Array.unsafe_set out 0 t.times.(0);
  Float.Array.unsafe_set out 1 (float_of_int t.seqs.(0));
  pop_min_exn t

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    let x = pop_min_exn t in
    Some (time, seq, x)
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let clear t =
  if t.size > 0 then Array.fill t.data 0 t.size (dummy ());
  t.size <- 0
