(* Calendar-queue event scheduler (Brown 1988, as in ns-2's default
   scheduler): amortized O(1) insert and extract-min for the
   short-horizon, dense event-time distributions a packet-level DES
   produces.

   Structure: a power-of-two ring of buckets, each a sorted intrusive
   list of events keyed lexicographically by [(time, seq)]. An event at
   time [t] lives in ring slot [floor (t / width) land (nbuckets - 1)];
   the dequeue scan walks absolute slots ([f_slot], a float so it is
   exact up to 2^53) and wraps around the ring, so each bucket yields
   only events of the scan's current "year" and in key order. Buckets
   hold ~O(1) events when [width] matches the observed event density.
   Two points re-estimate it: every size-triggered [resize], and
   [pop_min_exn] each time the gap estimator's window turns over, which
   re-widths the ring in place once the estimate has left the current
   width's band (see [next_width]).

   Scan invariant: no pending event maps to an absolute slot earlier
   than [f_slot]. [add] restores it by rewinding the scan when an event
   lands behind; [pop] preserves it because only minima are removed.
   The invariant is what makes the forward-only scan correct.

   Determinism contract: pops come out in exactly the order {!Heap}
   produces — nondecreasing [(time, seq)] — so a simulation replays
   byte-identically under either scheduler (cross-checked by the QCheck
   equivalence property in test/test_engine.ml and the scheduler-swap
   CI job).

   Storage is four parallel arrays (times / seqs / payloads / next
   links) plus an int free-list threaded through [next], so steady-state
   insert/pop allocates nothing (pertalloc [@alloc.zero], same contract
   as Heap). *)

type 'a t = {
  mutable times : float array;  (* node plane: event time *)
  mutable seqs : int array;  (* node plane: FIFO tie-break *)
  mutable data : 'a array;  (* node plane: payload *)
  mutable next : int array;  (* node plane: bucket chain / free list *)
  mutable free : int;  (* head of the node free-list, -1 = full *)
  mutable buckets : int array;  (* bucket heads, -1 = empty *)
  mutable nbuckets : int;  (* power of two *)
  mutable size : int;
  (* unboxed float state plane ([f_width] etc. index it): mutable float
     fields of this mixed record would be boxed, costing 2 minor words
     per store on the per-pop scan path (pertalloc rule A2). *)
  fstate : floatarray;
  (* memoized minimum: node index, -1 = unknown. [min_time_exn] performs
     the (amortized O(1), occasionally O(B)) bucket scan and caches the
     result; the following [pop_min_exn] is then O(1). [add] updates it
     directly when the new event beats it. *)
  mutable head : int;
  (* bucket index holding [head]; only meaningful while [head >= 0].
     Caching it saves [pop_min_exn] a float divide + floor re-deriving
     the bucket the scan just looked at. *)
  mutable headb : int;
  mutable gap_count : int;
}

(* fstate indices *)
let f_width = 0  (* bucket width in seconds *)
let f_slot = 1  (* absolute slot number of the dequeue scan *)
let f_last = 2  (* largest time popped so far *)
let f_gap = 3
(* [f_gap]: running density estimate — summed spacing between
   successive distinct pop times over the last [gap_window] or fewer
   of them, used to pick the width. *)
let f_max = 4
(* [f_max]: high-water mark of added event times. With [f_last] it
   bounds the span of the pending set, giving [estimate_width] a signal
   that works before any pop has produced a gap sample — without it, a
   bulk load keeps the stale default width and the drain scan walks
   arbitrarily many empty buckets per pop. *)
let f_invw = 5
(* [f_invw]: cached [1.0 /. f_width], maintained by [set_width] alone.
   [slot_of] runs once per add and once per pop; a multiply there costs
   a third of the divide's latency. *)

let[@inline] width t = Float.Array.unsafe_get t.fstate f_width
let[@inline] invw t = Float.Array.unsafe_get t.fstate f_invw
let[@inline] slot t = Float.Array.unsafe_get t.fstate f_slot
let[@inline] last_time t = Float.Array.unsafe_get t.fstate f_last
let[@inline] gap_sum t = Float.Array.unsafe_get t.fstate f_gap

let[@inline] set_width t v =
  Float.Array.unsafe_set t.fstate f_width v;
  Float.Array.unsafe_set t.fstate f_invw (1.0 /. v)
let[@inline] set_slot t v = Float.Array.unsafe_set t.fstate f_slot v
let[@inline] set_last_time t v = Float.Array.unsafe_set t.fstate f_last v
let[@inline] set_gap_sum t v = Float.Array.unsafe_set t.fstate f_gap v
let[@inline] max_time t = Float.Array.unsafe_get t.fstate f_max
let[@inline] set_max_time t v = Float.Array.unsafe_set t.fstate f_max v

let min_buckets = 4
let default_width = 1e-3

(* At [gap_window] samples the gap estimator halves its sums, so its
   window turns over every [gap_window / 2] distinct-time pops: old
   regimes (e.g. a warm-up phase) age out, and each turnover is when
   [pop_min_exn] re-checks the width. *)
let gap_window = 4096

(* Inert filler for payload slots not currently on any bucket chain
   (same Dynarray technique as [Heap.dummy]): an immediate, never read
   back at type ['a], so popped payloads are collectable at once. *)
let dummy : 'a. unit -> 'a = fun () -> (Obj.magic 0 [@lint.allow "N2"])

let create ?(capacity = 256) () =
  let capacity = max capacity 1 in
  let next = Array.init capacity (fun i -> i + 1) in
  next.(capacity - 1) <- -1;
  {
    times = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    data = Array.make capacity (dummy ());
    next;
    free = 0;
    buckets = Array.make min_buckets (-1);
    nbuckets = min_buckets;
    size = 0;
    fstate =
      (let f = Float.Array.make 6 0.0 in
       Float.Array.set f f_width default_width;
       Float.Array.set f f_invw (1.0 /. default_width);
       f);
    head = -1;
    headb = -1;
    gap_count = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* [@lint.allow "A1"]: node-pool growth, amortized O(1) words per add
   (the same allowance Heap.grow carries). 4x per step while small, 2x
   once past 64k nodes: the discarded intermediate planes are pure
   major-heap garbage — a pool reaching capacity C leaves ~C/3 dead
   words behind under 4x vs ~2C under doubling — and short-lived sims
   (one per experiment cell, one per bench iteration) pay the major-GC
   mark/sweep of that garbage as measurable per-run overhead. Above the
   threshold the planes are megabytes, where a 4x step's up-to-3x
   overshoot in live memory (and the cost of zeroing it) outweighs the
   copy savings, so the schedule drops back to doubling. *)
let[@lint.allow "A1"] grow_pool t =
  let cap = Array.length t.times in
  let cap' = if cap >= 65536 then 2 * cap else 4 * cap in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let data = Array.make cap' (dummy ()) in
  let next = Array.make cap' (-1) in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.data 0 data 0 cap;
  Array.blit t.next 0 next 0 cap;
  for i = cap to cap' - 2 do
    next.(i) <- i + 1
  done;
  next.(cap' - 1) <- t.free;
  t.free <- cap;
  t.times <- times;
  t.seqs <- seqs;
  t.data <- data;
  t.next <- next

(* Absolute slot number of a time under the current width. The same
   expression everywhere — slot comparisons must agree exactly with
   bucket placement, so this is the single source of truth. Two
   deliberate liberties, both safe because any monotone, consistently
   applied time->slot map is a correct calendar geometry: truncation
   instead of [Float.floor] (equal for the non-negative times the
   {!add} contract guarantees, and a register round-trip instead of a
   libm call), and multiplication by the cached [1/width] instead of
   dividing (a third of the latency; [t *. invw] can differ from
   [t /. w] by an ulp at a slot boundary, which merely shifts that
   boundary — placement, scan and relink all ask this same function).
   Exact for slot numbers up to 2^53. *)
let[@inline] slot_of t time =
  Float.of_int (int_of_float (time *. invw t) [@lint.allow "N3"])

(* In-module truncation rather than Units.Round.trunc, so [slot] stays
   unboxed in every build: under --profile dev every module is -opaque,
   and the cross-library call would box [slot] on every add/pop. Slot
   numbers are nonnegative and < 2^53, where truncation is exact. *)
let[@inline] bucket_of_slot t slot =
  (int_of_float slot [@lint.allow "N3"]) land (t.nbuckets - 1)

(* Unchecked node-plane accessors for the hot paths below. Soundness of
   the elided bounds checks: every node index in play comes from the
   free list or a bucket chain, both threaded through [next] over
   indices < capacity by construction ([create]/[grow_pool] initialize
   them, nothing else mints indices); the four node-plane arrays always
   share one capacity; and bucket indices are masked by
   [nbuckets - 1]. Checked accesses cost a compare+branch per read, and
   [add]/[pop] touch the planes ~8 times each — measurable on a path
   that runs once per simulated packet. *)
let[@inline] utime t i = Array.unsafe_get t.times i
let[@inline] useq t i = Array.unsafe_get t.seqs i
let[@inline] unext t i = Array.unsafe_get t.next i
let[@inline] set_unext t i v = Array.unsafe_set t.next i v
let[@inline] ubucket t b = Array.unsafe_get t.buckets b
let[@inline] set_ubucket t b v = Array.unsafe_set t.buckets b v

(* Key order on nodes: [(time, seq)] lexicographically. Comparing by
   node index keeps every float in its plane — a float argument to the
   recursive helpers below would be boxed at each call. Event times are
   never NaN, so once [a < b] has failed, [not (a > b)] is the tie test:
   two machine compares, where [Float.equal] is a three-way compare. *)
let[@inline] key_lt t a b =
  let ta = utime t a and tb = utime t b in
  ta < tb || ((not (ta > tb)) && useq t a < useq t b)

(* Walk [prev]'s chain to the insertion point for node [n]'s key and
   splice [n] in. Toplevel and tail-recursive on int arguments: a local
   closure or a (prev, cur) tuple here would charge ~10 minor words to
   every [add]. *)
let rec chain_insert t n prev =
  let cur = unext t prev in
  if cur >= 0 && key_lt t cur n then chain_insert t n cur
  else begin
    set_unext t n cur;
    set_unext t prev n
  end

(* Insert node [n] (whose key is already stored) into bucket [b]'s
   sorted chain; the caller has already derived [b] from the time, so
   the slot arithmetic is done exactly once per insert. O(chain
   length): amortized O(1) when [width] tracks density. *)
let[@inline] link_node t n b =
  let h = ubucket t b in
  if h < 0 || key_lt t n h then begin
    set_unext t n h;
    set_ubucket t b n
  end
  else chain_insert t n h

(* Width from observed event density, two estimators: mean inter-event
   gap of recent pops, and the pending set's span over its population
   ([f_max] - [f_last], the only estimate available during a bulk load
   before any pop). Take the finer of the two, times a small factor so
   a bucket holds a handful of events: a too-fine width degrades
   gracefully (the direct-search fallback re-anchors past an empty
   region in one ring walk, amortized per region not per pop), while a
   too-coarse width piles events into one bucket and makes every insert
   walk the chain. Purely a performance knob — any positive width is
   correct — but it must be deterministic, which a function of event
   times is. Infinite while neither estimator has a sample. *)
let[@inline] estimate_width t =
  let gap_est =
    if t.gap_count > 0 && gap_sum t > 0.0 then
      3.0 *. gap_sum t /. float_of_int t.gap_count
    else Float.infinity
  in
  let span_est =
    let span = max_time t -. last_time t in
    if t.size > 0 && span > 0.0 then 3.0 *. span /. float_of_int t.size
    else Float.infinity
  in
  (* [Float.min gap_est span_est] without its C call: both are positive
     or infinite, never NaN or a signed zero (pertalloc rule A4). *)
  if span_est > gap_est then gap_est else span_est

(* The width a relink should adopt. Keep the current one while the
   estimate stays within its [w/2, 2w) band. Two payoffs: the geometry
   stops chasing estimator jitter, and — for [resize] — a grow under an
   UNCHANGED width maps each old bucket's chain into new buckets no
   other old bucket touches (identical slot numbers, wider mask), which
   unlocks the comparison-free relink there. An estimate outside the
   band means the density regime really changed: take it as-is. The
   1e-9 floor keeps slot numbers far below 2^53 for any simulated time
   this repo reaches. *)
let[@inline] next_width t =
  let w = width t and est = estimate_width t in
  if Float.is_finite est && est > 0.0 && (est < 0.5 *. w || est >= 2.0 *. w)
  then if 1e-9 > est then 1e-9 else est
  else w

(* Detach every chain of [buckets] from bucket [b] on, emptying each
   head, and return the nodes as one list threaded through [next].
   Each chain is consumed front to back and prepended node by node, so
   the list holds it in descending key order — the order in which
   [link_node] inserts at a chain head in O(1). Tail-recursive on ints,
   like [chain_insert]: nothing here allocates. *)
let rec detach_chain t n acc =
  if n < 0 then acc
  else begin
    let nx = unext t n in
    set_unext t n acc;
    detach_chain t nx n
  end

let rec detach t buckets b acc =
  if b >= Array.length buckets then acc
  else begin
    let h = buckets.(b) in
    buckets.(b) <- -1;
    detach t buckets (b + 1) (detach_chain t h acc)
  end

let rec relink t n =
  if n >= 0 then begin
    let nx = unext t n in
    link_node t n (bucket_of_slot t (slot_of t (utime t n)));
    relink t nx
  end

(* The sorted relink, the one path by which the width changes: drain
   every chain of [src], adopt width [w'], then insert each node into
   [t.buckets] under the new geometry, [link_node] keeping each chain
   sorted. [src] is the old ring after a [resize] reallocated it, or
   [t.buckets] itself for the in-place re-width — draining empties it
   before the first insert. *)
let[@inline] relink_sorted t src w' =
  let l = detach t src 0 (-1) in
  set_width t w';
  relink t l

(* Direct-search fallback: minimum over all chain heads (chains are
   sorted, so heads suffice), then re-anchor the scan at the winner.
   Tail-recursive on ints — no refs, no boxing. size > 0 guarantees a
   head exists, so [best] is valid at the end. *)
let rec direct_search t b best =
  if b >= t.nbuckets then begin
    t.head <- best;
    let sl = slot_of t (utime t best) in
    set_slot t sl;
    t.headb <- bucket_of_slot t sl
  end
  else begin
    let h = ubucket t b in
    let best = if h >= 0 && (best < 0 || key_lt t h best) then h else best in
    direct_search t (b + 1) best
  end

(* After a relink, point the scan at the minimum in one O(B) pass: the
   scan invariant then holds trivially, and the memoized head is
   valid. *)
let reanchor t =
  if t.size > 0 then direct_search t 0 (-1)
  else begin
    set_slot t 0.0;
    t.head <- -1
  end

(* [@lint.allow "A1"]: geometry change reallocates the bucket ring; the
   doubling/halving schedule amortizes it to O(1) per operation. *)
let[@lint.allow "A1"] resize t nbuckets' =
  let w = width t and w' = next_width t in
  let old_buckets = t.buckets and old_n = t.nbuckets in
  t.buckets <- Array.make nbuckets' (-1);
  t.nbuckets <- nbuckets';
  if Float.equal w' w && nbuckets' > old_n && nbuckets' land (old_n - 1) = 0
  then begin
    (* Order-preserving fast relink, valid for a grow to ANY power-of-two
       multiple of [old_n] under an unchanged width: traverse each old
       chain in key order, prepend each node to its new bucket (O(1), no
       comparisons), then reverse every new chain once. Sound because
       with the width unchanged every node keeps its slot number, so a
       new bucket receives nodes of exactly one slot residue class mod
       [old_n] — one old bucket — and each new chain is one ascending
       subsequence prepended into descending order. A finer width would
       not be sound here: recomputing [slot_of] under w/2 is a fresh
       multiply that can disagree with 2x the old slot by an ulp at a
       boundary, landing a node in a new bucket another old bucket also
       feeds and silently interleaving two sorted runs. (A shrink has no
       such path either: several old buckets fold into one new bucket.) *)
    for b = 0 to old_n - 1 do
      let cur = ref old_buckets.(b) in
      while !cur >= 0 do
        let n = !cur in
        cur := t.next.(n);
        let nb = bucket_of_slot t (slot_of t t.times.(n)) in
        t.next.(n) <- t.buckets.(nb);
        t.buckets.(nb) <- n
      done
    done;
    for nb = 0 to nbuckets' - 1 do
      let prev = ref (-1) and cur = ref t.buckets.(nb) in
      while !cur >= 0 do
        let n = !cur in
        cur := t.next.(n);
        t.next.(n) <- !prev;
        prev := n
      done;
      t.buckets.(nb) <- !prev
    done
  end
  else relink_sorted t old_buckets w';
  reanchor t

let[@alloc.zero] add t ~time ~seq x =
  if t.free < 0 then grow_pool t;
  let n = t.free in
  t.free <- unext t n;
  Array.unsafe_set t.times n time;
  Array.unsafe_set t.seqs n seq;
  Array.unsafe_set t.data n x;
  let eslot = slot_of t time in
  let b = bucket_of_slot t eslot in
  link_node t n b;
  t.size <- t.size + 1;
  if time > max_time t then set_max_time t time;
  (* Restore the scan invariant: an event landing in a slot the scan
     has already passed rewinds the scan to that slot. *)
  if eslot < slot t then set_slot t eslot;
  (* Keep the memoized minimum truthful: the previous head was the
     global minimum, so beating it makes [n] the new minimum. *)
  if t.head >= 0 && key_lt t n t.head then begin
    t.head <- n;
    t.headb <- b
  end;
  (* Grow 8x while the ring is small, 4x once past 8k buckets: a resize
     relinks every pending node, so a growth factor g costs g/(g-1)
     amortized relinks per add in steady growth (2 for doubling, 8/7 at
     8x) and a bulk load pays log_g resizes — but each step also
     allocates and zeroes the new ring, and past a few thousand buckets
     the 8x step's memory overshoot (a 131072-slot ring for a 33k-event
     backlog) costs more in zeroing, cache footprint and direct-search
     fallback span than the saved relinks. Either way the relink is the
     comparison-free fast path above (growth is a power-of-two multiple
     of old_n, width usually unchanged mid-load); slot-chain occupancy
     is set by [width], not ring size. The shrink trigger (size <
     nbuckets/16, to nbuckets/4) stays far below both grow triggers, so
     the geometry cannot thrash. *)
  if t.size > 2 * t.nbuckets then
    resize t (if t.nbuckets >= 8192 then 4 * t.nbuckets else 8 * t.nbuckets)

exception Empty

(* Locate the minimum-key node and cache it in [t.head]. Calendar scan:
   starting at [f_slot], yield a bucket's chain head if it falls inside
   the slot's year window [slot*width, (slot+1)*width); otherwise
   advance. A chain head inside the window is the global minimum: every
   pending event maps to slot >= f_slot (invariant), so events in other
   buckets of this year sit in later slots (later windows), and events
   of later years are >= a full ring ahead. If a whole ring of slots
   yields nothing (sparse far-future events), fall back to a direct
   min scan over chain heads and re-anchor at the winner. *)
let rec scan_from t steps =
  let b = bucket_of_slot t (slot t) in
  let h = ubucket t b in
  (* In-window test via [slot_of], the same expression that placed the
     event — a [time < (slot+1)*width] comparison could disagree with
     the floor placement by an ulp at slot boundaries. Under the scan
     invariant [slot_of >= slot], [<=] means exactly "this year". *)
  if h >= 0 && slot_of t (utime t h) <= slot t then begin
    t.head <- h;
    t.headb <- b
  end
  else if steps >= t.nbuckets then
    (* A whole ring yielded nothing: sparse far-future events. *)
    direct_search t 0 (-1)
  else begin
    set_slot t (slot t +. 1.0);
    scan_from t (steps + 1)
  end

let[@inline] scan t = scan_from t 0

let[@inline] [@alloc.zero] min_time_exn t =
  if t.size = 0 then raise Empty;
  if t.head < 0 then scan t;
  utime t t.head

let[@alloc.zero] pop_min_exn t =
  if t.size = 0 then raise Empty;
  if t.head < 0 then scan t;
  let n = t.head in
  let time = utime t n in
  (* The memoized minimum is by construction the chain head of its
     (cached) bucket. *)
  let succ = unext t n in
  set_ubucket t t.headb succ;
  (* Eagerly promote the successor when it is still inside the scan's
     current year window: it is then the next global minimum (same
     argument as the scan's in-window test), and the dense steady state
     pops without restarting the scan at all. Otherwise invalidate and
     let the next [min_time_exn] scan forward. *)
  if succ >= 0 && slot_of t (utime t succ) <= slot t then t.head <- succ
  else t.head <- -1;
  t.size <- t.size - 1;
  if time > last_time t then begin
    (* Density sample: spacing between successive distinct pop times. *)
    set_gap_sum t (gap_sum t +. (time -. last_time t));
    t.gap_count <- t.gap_count + 1;
    set_last_time t time;
    if t.gap_count >= gap_window then begin
      set_gap_sum t (gap_sum t *. 0.5);
      t.gap_count <- t.gap_count / 2;
      (* Window turnover: re-check the width. [resize] alone leaves it
         wherever the last size-triggered step put it, and a pending set
         that settles between the shrink and grow triggers never resizes
         again — on the web mix that froze a start-up width hundreds of
         times the steady-state gap, and every fixed-delay add walked
         one long chain. Relink in place, into the ring already
         allocated: a fresh ring per re-width runs as fast but shifts
         the GC schedule of a whole run (DESIGN.md section 7). *)
      let w' = next_width t in
      if not (Float.equal w' (width t)) then begin
        relink_sorted t t.buckets w';
        reanchor t
      end
    end
  end;
  let x = Array.unsafe_get t.data n in
  (* Scrub the slot and return the node to the free list. *)
  Array.unsafe_set t.data n (dummy ());
  set_unext t n t.free;
  t.free <- n;
  (* Shrink lazily and 4x at a time: an oversized ring only taxes the
     occasional direct-search fallback (O(B)), so eagerness buys little,
     while every shrink relinks the whole pending set. The /16 trigger
     sits far below both the post-grow occupancy (an 8x grow at
     size = 2n lands at ratio 1/4) and the post-shrink ratio (also 1/4),
     so neither a fresh grow nor a fresh shrink is ever within two pops
     of re-triggering. *)
  if t.size < t.nbuckets / 16 && t.nbuckets > min_buckets then begin
    let nb = t.nbuckets / 4 in
    resize t (if nb < min_buckets then min_buckets else nb)
  end;
  x

(* Same fused key+payload pop as {!Heap.pop_min_into}: time into
   [out].{0}, seq into [out].{1}, unboxed writes, no allocation. The
   scan (if the memoized head is stale) runs once here; the
   [pop_min_exn] call then finds [t.head] already valid. *)
let[@alloc.zero] pop_min_into t out =
  if t.size = 0 then raise Empty;
  if t.head < 0 then scan t;
  Float.Array.unsafe_set out 0 (utime t t.head);
  Float.Array.unsafe_set out 1 (float_of_int (useq t t.head));
  pop_min_exn t

let pop t =
  if t.size = 0 then None
  else begin
    if t.head < 0 then scan t;
    let time = t.times.(t.head) and seq = t.seqs.(t.head) in
    let x = pop_min_exn t in
    Some (time, seq, x)
  end

let peek_time t = if t.size = 0 then None else Some (min_time_exn t)

let clear t =
  let cap = Array.length t.times in
  if t.size > 0 then Array.fill t.data 0 cap (dummy ());
  for i = 0 to cap - 2 do
    t.next.(i) <- i + 1
  done;
  t.next.(cap - 1) <- -1;
  t.free <- 0;
  Array.fill t.buckets 0 t.nbuckets (-1);
  t.size <- 0;
  set_slot t 0.0;
  set_last_time t 0.0;
  set_gap_sum t 0.0;
  set_max_time t 0.0;
  t.head <- -1;
  t.gap_count <- 0
