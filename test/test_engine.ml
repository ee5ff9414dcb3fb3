(* Tests for the discrete-event engine: Heap, Wheel, Sim, Rng, Stats, Fvec. *)

open Sim_engine

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ts = Units.Time.s
let thunk = Test_support.thunk

(* --- Heap ---------------------------------------------------------------- *)

let heap_pop_order () =
  let h = Heap.create () in
  List.iteri
    (fun i t -> Heap.add h ~time:t ~seq:i i)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (t, _, _) ->
        order := t :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.add h ~time:1.0 ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, seq, v) ->
        check_int "seq order" i seq;
        check_int "payload order" i v
    | None -> Alcotest.fail "heap drained early"
  done

let heap_interleaved () =
  let h = Heap.create ~capacity:1 () in
  Heap.add h ~time:2.0 ~seq:0 "b";
  Heap.add h ~time:1.0 ~seq:1 "a";
  (match Heap.pop h with
  | Some (t, _, v) ->
      check_float "first time" 1.0 t;
      Alcotest.(check string) "first value" "a" v
  | None -> Alcotest.fail "empty");
  Heap.add h ~time:0.5 ~seq:2 "c";
  (match Heap.pop h with
  | Some (_, _, v) -> Alcotest.(check string) "second" "c" v
  | None -> Alcotest.fail "empty");
  check_int "length" 1 (Heap.length h);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let heap_peek () =
  let h = Heap.create () in
  Alcotest.(check (option (float 0.0))) "empty peek" None (Heap.peek_time h);
  Heap.add h ~time:3.0 ~seq:0 ();
  Heap.add h ~time:1.5 ~seq:1 ();
  Alcotest.(check (option (float 0.0))) "min peek" (Some 1.5) (Heap.peek_time h)

(* Popped payloads must become collectable immediately: the vacated array
   slot used to keep a reference to the popped element alive until it was
   overwritten by a later add. Payloads are minted (and popped) inside
   [@inline never] helpers so no test-frame local pins them. *)
let[@inline never] heap_add_tracked h finalised ~time ~seq =
  let payload = ref (Sys.opaque_identity seq) in
  Gc.finalise (fun _ -> incr finalised) payload;
  Heap.add h ~time ~seq payload

let[@inline never] heap_pop_discard h =
  match Heap.pop h with
  | Some _ -> ()
  | None -> Alcotest.fail "heap drained early"

let heap_pop_releases_payload () =
  let h = Heap.create () in
  let finalised = ref 0 in
  for i = 0 to 3 do
    heap_add_tracked h finalised ~time:(float_of_int i) ~seq:i
  done;
  heap_pop_discard h;
  Gc.full_major ();
  Gc.full_major ();
  check_int "popped payload collected, the three live ones kept" 1 !finalised;
  check_int "heap still holds the rest" 3 (Heap.length h)

let heap_drain_releases_all () =
  let h = Heap.create () in
  let finalised = ref 0 in
  for i = 0 to 2 do
    heap_add_tracked h finalised ~time:(float_of_int i) ~seq:i
  done;
  for _ = 0 to 2 do
    heap_pop_discard h
  done;
  Gc.full_major ();
  Gc.full_major ();
  check_int "every payload collected once drained" 3 !finalised;
  (* The drained heap must still be reusable. *)
  Heap.add h ~time:9.0 ~seq:9 (ref 9);
  check_int "add after drain" 1 (Heap.length h)

let heap_exn_api () =
  let h = Heap.create () in
  Alcotest.check_raises "min_time_exn on empty" Heap.Empty (fun () ->
      ignore (Heap.min_time_exn h));
  Alcotest.check_raises "pop_min_exn on empty" Heap.Empty (fun () ->
      ignore (Heap.pop_min_exn h));
  Heap.add h ~time:2.0 ~seq:0 "b";
  Heap.add h ~time:1.0 ~seq:1 "a";
  check_float "min_time_exn" 1.0 (Heap.min_time_exn h);
  Alcotest.(check string) "pop_min_exn pops the min" "a" (Heap.pop_min_exn h);
  Alcotest.(check string) "then the next" "b" (Heap.pop_min_exn h);
  check_bool "drained" true (Heap.is_empty h)

(* Dynamic counterpart of the static [@alloc.zero] contract on
   [Heap.add]/[min_time_exn]/[pop_min_exn] (pertalloc rules A1-A3). In
   the default build (release profile, -inline 60: dune-workspace and
   the root dune) [add] and [min_time_exn] inline here, and a presized
   add+drain cycle allocates exactly one boxed float per element (2
   words over 2 ops): the [min_time_exn] result this test [ignore]s.
   Any further block per element adds at least 1.0 word/op and trips
   the 1.5 ceiling. A dev-profile build ([--profile dev]) compiles with
   -opaque, so nothing inlines across modules and [add]'s float
   argument boxes too: it measures 2.0 and fails here by design. *)
let heap_hot_path_allocation_free () =
  let n = 1000 in
  let h = Heap.create ~capacity:n () in
  let fill () =
    for i = 0 to n - 1 do
      Heap.add h ~time:(float_of_int (i * 7919 mod n)) ~seq:i ()
    done
  in
  let drain () =
    while not (Heap.is_empty h) do
      ignore (Heap.min_time_exn h);
      Heap.pop_min_exn h
    done
  in
  (* Warm-up pass so one-time costs don't land in the measured window. *)
  fill ();
  drain ();
  let w0 = Gc.minor_words () in
  fill ();
  drain ();
  let per_op = (Gc.minor_words () -. w0) /. float_of_int (2 * n) in
  check_bool
    (Printf.sprintf
       "heap hot path: %.3f minor words/op within 1.5 (over it: first \
        suspect the build profile; --profile dev compiles -opaque)"
       per_op)
    true
    (per_op <= 1.5)

let heap_qcheck_sorted =
  QCheck.Test.make ~name:"heap pops any multiset sorted" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.add h ~time:t ~seq:i ()) times;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, _, ()) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* --- Wheel ---------------------------------------------------------------- *)

(* The calendar queue must be observationally identical to the heap:
   these mirror the heap tests, then add the wheel-specific hazards
   (insert behind the scan cursor, bucket resizing, same-timestamp
   runs). *)

let wheel_pop_order () =
  let w = Wheel.create () in
  List.iteri
    (fun i t -> Wheel.add w ~time:t ~seq:i i)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Wheel.pop w with
    | Some (t, _, _) ->
        order := t :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let wheel_fifo_ties () =
  let w = Wheel.create () in
  for i = 0 to 99 do
    Wheel.add w ~time:1.0 ~seq:i i
  done;
  for i = 0 to 99 do
    match Wheel.pop w with
    | Some (_, seq, v) ->
        check_int "seq order" i seq;
        check_int "payload order" i v
    | None -> Alcotest.fail "wheel drained early"
  done

let wheel_exn_api () =
  let w = Wheel.create () in
  Alcotest.check_raises "min_time_exn on empty" Wheel.Empty (fun () ->
      ignore (Wheel.min_time_exn w));
  Alcotest.check_raises "pop_min_exn on empty" Wheel.Empty (fun () ->
      ignore (Wheel.pop_min_exn w));
  Wheel.add w ~time:2.0 ~seq:0 "b";
  Wheel.add w ~time:1.0 ~seq:1 "a";
  check_float "min_time_exn" 1.0 (Wheel.min_time_exn w);
  Alcotest.(check string) "pop_min_exn pops the min" "a" (Wheel.pop_min_exn w);
  Alcotest.(check string) "then the next" "b" (Wheel.pop_min_exn w);
  check_bool "drained" true (Wheel.is_empty w)

(* Regression for the scan-invariant bug: a peek advances the scan
   cursor to a far-future slot; a later add must rewind it, or the
   earlier event pops out of order (this exact sequence shipped broken
   in the first cut and surfaced as Time_weighted going backwards). *)
let wheel_insert_behind_scan () =
  let w = Wheel.create () in
  Wheel.add w ~time:10.0 ~seq:0 "far";
  check_float "peek advances the scan" 10.0 (Wheel.min_time_exn w);
  Wheel.add w ~time:0.25 ~seq:1 "near";
  Alcotest.(check string) "near pops first" "near" (Wheel.pop_min_exn w);
  check_float "far still findable" 10.0 (Wheel.min_time_exn w);
  Alcotest.(check string) "then far" "far" (Wheel.pop_min_exn w)

let wheel_peek () =
  let w = Wheel.create () in
  Alcotest.(check (option (float 0.0))) "empty peek" None (Wheel.peek_time w);
  Wheel.add w ~time:3.0 ~seq:0 ();
  Wheel.add w ~time:1.5 ~seq:1 ();
  Alcotest.(check (option (float 0.0)))
    "min peek" (Some 1.5) (Wheel.peek_time w)

let wheel_reuse_after_clear () =
  let w = Wheel.create () in
  Wheel.add w ~time:1.0 ~seq:0 "x";
  Wheel.clear w;
  Wheel.add w ~time:2.0 ~seq:1 "y";
  (match Wheel.pop w with
  | Some (t, _, v) ->
      check_float "time" 2.0 t;
      Alcotest.(check string) "value" "y" v
  | None -> Alcotest.fail "empty after reuse");
  check_bool "drained" true (Wheel.is_empty w)

let[@inline never] wheel_add_tracked w finalised ~time ~seq =
  let payload = ref (Sys.opaque_identity seq) in
  Gc.finalise (fun _ -> incr finalised) payload;
  Wheel.add w ~time ~seq payload

let[@inline never] wheel_pop_discard w =
  match Wheel.pop w with
  | Some _ -> ()
  | None -> Alcotest.fail "wheel drained early"

let wheel_pop_releases_payload () =
  let w = Wheel.create () in
  let finalised = ref 0 in
  for i = 0 to 3 do
    wheel_add_tracked w finalised ~time:(float_of_int i) ~seq:i
  done;
  wheel_pop_discard w;
  Gc.full_major ();
  Gc.full_major ();
  check_int "popped payload collected, the three live ones kept" 1 !finalised;
  check_int "wheel still holds the rest" 3 (Wheel.length w)

(* Bucket-count resizing: push the size across several grow thresholds
   (4 -> 8 -> ... while size > 2*nbuckets) and back down through the
   shrink ones, with clustered times so chains are non-trivial, and
   demand exact heap-identical output throughout. *)
let wheel_resize_boundaries () =
  let h = Heap.create () and w = Wheel.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    (* lcg times quantized to force same-timestamp runs across resizes *)
    let time = float_of_int (i * 7919 mod 257) *. 0.01 in
    Heap.add h ~time ~seq:i i;
    Wheel.add w ~time ~seq:i i
  done;
  for _ = 0 to n - 1 do
    let th = Heap.min_time_exn h and tw = Wheel.min_time_exn w in
    check_float "same min time" th tw;
    let vh = Heap.pop_min_exn h and vw = Wheel.pop_min_exn w in
    check_int "same payload" vh vw
  done;
  check_bool "both drained" true (Heap.is_empty h && Wheel.is_empty w)

(* The width must follow a density shift that no resize sees. A bulk
   load of 4096 events over [1, 41] s sets a 35 ms width; then 1024
   events stay in flight, each re-added 10 ms after it pops — the shape
   of in-flight packet arrivals, ~9.8 us apart. The population never
   crosses a grow or shrink trigger again, so only the pop-side re-check
   can bring the width down; without it every re-add walks a chain of
   the ~1000 events sharing its 35 ms bucket. Pops must match the heap
   throughout. *)
let wheel_tracks_density_shift () =
  let h = Heap.create () and w = Wheel.create () in
  let seq = ref 0 in
  let add time =
    Heap.add h ~time ~seq:!seq !seq;
    Wheel.add w ~time ~seq:!seq !seq;
    incr seq
  in
  let bulk = 4096 and in_flight = 1024 and delay = 0.010 in
  for i = 0 to bulk - 1 do
    add (1.0 +. (40.0 *. float_of_int i /. float_of_int bulk))
  done;
  let gap = delay /. float_of_int in_flight in
  for i = 0 to in_flight - 1 do
    add (gap *. float_of_int i)
  done;
  for _ = 1 to 16 * in_flight do
    let th = Heap.min_time_exn h and tw = Wheel.min_time_exn w in
    check_float "same min time" th tw;
    let vh = Heap.pop_min_exn h and vw = Wheel.pop_min_exn w in
    check_int "same payload" vh vw;
    add (tw +. delay)
  done;
  check_bool
    (Printf.sprintf "width %.3g s within 8x the %.3g s in-flight gap"
       (Wheel.width w) gap)
    true
    (Wheel.width w <= 8.0 *. gap)

(* Dynamic counterpart of the wheel's [@alloc.zero] contract, the
   steady-state shape the event loop produces: a constant-size
   pop-one/add-one churn (no resizes once warm). In the default build
   (release profile, -inline 60) [add] and [min_time_exn] inline here
   and the churn allocates nothing; the 0.5 ceiling trips on any block
   per round. A dev-profile build compiles with -opaque, so [add]'s float
   argument and [min_time_exn]'s result box: it measures 2.0 and fails
   here by design. *)
let wheel_hot_path_allocation_free () =
  let n = 1000 in
  let w = Wheel.create ~capacity:n () in
  for i = 0 to n - 1 do
    Wheel.add w ~time:(float_of_int (i * 7919 mod n) *. 0.001) ~seq:i ()
  done;
  let churn rounds seq0 =
    for i = 0 to rounds - 1 do
      let t = Wheel.min_time_exn w in
      Wheel.pop_min_exn w;
      Wheel.add w ~time:(t +. 1.0) ~seq:(seq0 + i) ()
    done
  in
  (* Warm-up pass so resizes and pool growth settle. *)
  churn n n;
  let w0 = Gc.minor_words () in
  churn n (2 * n);
  (* A round is one pop + one add: 2 ops, same accounting as the heap
     test above. *)
  let per_op = (Gc.minor_words () -. w0) /. float_of_int (2 * n) in
  check_bool
    (Printf.sprintf
       "wheel churn: %.3f minor words/op within 0.5 (over it: first \
        suspect the build profile; --profile dev compiles -opaque)"
       per_op)
    true
    (per_op <= 0.5)

(* The tentpole equivalence property: random interleavings of add/pop —
   including times before already-popped times, heavy ties, and sizes
   that cross resize thresholds — must pop the exact (time, seq)
   sequence the heap does. *)
let wheel_heap_equiv_qcheck =
  QCheck.Test.make ~name:"wheel ≡ heap on random schedules" ~count:300
    QCheck.(list (pair (int_bound 50) bool))
    (fun ops ->
      let h = Heap.create () and w = Wheel.create () in
      let seq = ref 0 in
      let ok = ref true in
      let check_pop () =
        match (Heap.pop h, Wheel.pop w) with
        | Some (th, sh, ()), Some (tw, sw, ()) ->
            if not (Float.equal th tw && sh = sw) then ok := false
        | None, None -> ()
        | _ -> ok := false
      in
      List.iter
        (fun (t, do_pop) ->
          (* Quantized times produce heavy same-timestamp runs. *)
          let time = float_of_int t *. 0.125 in
          Heap.add h ~time ~seq:!seq ();
          Wheel.add w ~time ~seq:!seq ();
          incr seq;
          if do_pop then check_pop ())
        ops;
      while (not (Heap.is_empty h)) || not (Wheel.is_empty w) do
        check_pop ()
      done;
      !ok)

(* --- Sim ------------------------------------------------------------------ *)

let sim_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim (ts 2.0) (thunk (fun () -> log := (2, Sim.now sim) :: !log));
  Sim.at sim (ts 1.0) (thunk (fun () -> log := (1, Sim.now sim) :: !log));
  Sim.after sim (ts 3.0) (thunk (fun () -> log := (3, Sim.now sim) :: !log));
  Sim.run sim;
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] order;
  check_float "clock at end" 3.0 (Sim.now sim)

let sim_until_semantics () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim (ts 5.0) (thunk (fun () -> fired := true));
  Sim.run ~until:(ts 2.0) sim;
  check_bool "future event not fired" false !fired;
  check_float "clock advanced to horizon" 2.0 (Sim.now sim);
  Sim.run ~until:(ts 10.0) sim;
  check_bool "event fires on later run" true !fired

let sim_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref 0 in
  let rec tick n =
    if n > 0 then begin
      incr hits;
      Sim.after sim (ts 1.0) (thunk (fun () -> tick (n - 1)))
    end
  in
  Sim.at sim (ts 0.0) (thunk (fun () -> tick 5));
  Sim.run sim;
  check_int "nested events all ran" 5 !hits;
  (* the 5th tick at t=4 schedules a no-op tick at t=5 *)
  check_float "clock" 5.0 (Sim.now sim)

(* A periodic event re-arms only while the simulation is not stopped
   ([Sim.stopped]), so [Sim.stop] ends it for good. *)
let sim_every_and_stop () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  Test_support.ticker sim ~start:(ts 1.0) (ts 1.0) (fun () ->
      incr ticks;
      if !ticks = 4 then Sim.stop sim);
  Sim.run ~until:(ts 100.0) sim;
  check_int "stopped after 4 ticks" 4 !ticks;
  Sim.run ~until:(ts 100.0) sim;
  check_int "the stopped tick did not re-arm" 4 !ticks

let sim_rejects_past () =
  let sim = Sim.create () in
  Sim.at sim (ts 1.0) (thunk (fun () ->
      Alcotest.check_raises "scheduling into the past"
        (Invalid_argument "Sim.at: time 0.5 is before now 1") (fun () ->
          Sim.at sim (ts 0.5) (thunk ignore))));
  Sim.run sim;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.after: negative delay") (fun () ->
      Sim.after sim (ts (-1.0)) (thunk ignore))

(* A reserved number keeps an event's place among equal-time events
   however late it is inserted, under either scheduler; [pending]
   counts what is queued. *)
let sim_reserved_keys () =
  List.iter
    (fun scheduler ->
      let sim = Sim.create ~scheduler () in
      let log = ref [] in
      let ev n = thunk (fun () -> log := n :: !log) in
      let first = Sim.reserve sim in
      Sim.at sim (ts 1.0) (ev 2);
      Sim.after sim (ts 1.0) (ev 3);
      check_int "two pending" 2 (Sim.pending sim);
      Sim.at_reserved sim (ts 1.0) ~seq:first (ev 1);
      check_int "three pending" 3 (Sim.pending sim);
      Sim.run sim;
      Alcotest.(check (list int)) "reserved order" [ 1; 2; 3 ] (List.rev !log);
      check_int "drained" 0 (Sim.pending sim);
      Alcotest.check_raises "reserved time in the past"
        (Invalid_argument "Sim.at: time 0.5 is before now 1") (fun () ->
          Sim.at_reserved sim (ts 0.5) ~seq:(Sim.reserve sim) (ev 4)))
    [ `Heap; `Wheel ]

let sim_counts_events () =
  let sim = Sim.create () in
  for i = 1 to 7 do
    Sim.at sim (ts (float_of_int i)) (thunk ignore)
  done;
  Sim.run sim;
  check_int "events executed" 7 (Sim.events_executed sim)

(* --- Rng ------------------------------------------------------------------ *)

let rng_determinism () =
  let a = Rng.create 9 and b = Rng.create 9 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a 1.0) (Rng.float b 1.0)
  done

let rng_split_independence () =
  let a = Rng.create 9 and b = Rng.create 9 in
  let a1 = Rng.split a and b1 = Rng.split b in
  (* Splits of identical parents are identical... *)
  check_float "split determinism" (Rng.float a1 1.0) (Rng.float b1 1.0);
  (* ...and the parent keeps its own stream after splitting. *)
  let x = Rng.float a 1.0 in
  check_bool "parent stream differs from child" true
    (not (Float.equal x (Rng.float a1 1.0)))

let rng_ranges () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng 2.0 3.0 in
    check_bool "uniform in range" true (u >= 2.0 && u < 3.0);
    let i = Rng.int rng 7 in
    check_bool "int in range" true (i >= 0 && i < 7)
  done

let mean_of f n =
  let rng = Rng.create 4 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. f rng
  done;
  !sum /. float_of_int n

let rng_exponential_mean () =
  let m = mean_of (fun rng -> Rng.exponential rng 2.5) 50_000 in
  check_float_eps 0.1 "exponential mean" 2.5 m

let rng_pareto_properties () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    check_bool "pareto >= scale" true (Rng.pareto rng ~shape:1.5 ~scale:3.0 >= 3.0)
  done;
  (* shape 2.5 has mean scale*shape/(shape-1) = 5/3 for scale 1. *)
  let m = mean_of (fun rng -> Rng.pareto rng ~shape:2.5 ~scale:1.0) 100_000 in
  check_float_eps 0.08 "pareto mean" (2.5 /. 1.5) m

let rng_bounded_pareto_in_range () =
  let rng = Rng.create 6 in
  for _ = 1 to 2000 do
    let x = Rng.bounded_pareto rng ~shape:1.2 ~scale:2.0 ~cap:100.0 in
    check_bool "bounded pareto range" true (x >= 2.0 -. 1e-9 && x <= 100.0 +. 1e-9)
  done

let rng_geometric () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    check_bool "geometric >= 1" true (Rng.geometric rng 0.3 >= 1)
  done;
  check_int "p=1 gives 1" 1 (Rng.geometric rng 1.0);
  let m = mean_of (fun rng -> float_of_int (Rng.geometric rng 0.25)) 50_000 in
  check_float_eps 0.1 "geometric mean 1/p" 4.0 m

let rng_bernoulli_rate () =
  let rng = Rng.create 8 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.bernoulli rng (Units.Prob.v 0.3) then incr hits
  done;
  check_float_eps 0.01 "bernoulli rate" 0.3 (float_of_int !hits /. 100_000.0)

(* --- Stats ----------------------------------------------------------------- *)

let acc_moments () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Acc.count acc);
  check_float "mean" 5.0 (Stats.Acc.mean acc);
  check_float_eps 1e-9 "variance" (32.0 /. 7.0) (Stats.Acc.variance acc);
  check_float "min" 2.0 (Stats.Acc.min acc);
  check_float "max" 9.0 (Stats.Acc.max acc)

let acc_empty () =
  let acc = Stats.Acc.create () in
  check_float "empty mean" 0.0 (Stats.Acc.mean acc);
  check_float "empty variance" 0.0 (Stats.Acc.variance acc);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.Acc.min: empty")
    (fun () -> ignore (Stats.Acc.min acc))

let tw_average () =
  let tw = Stats.Time_weighted.create ~start:0.0 ~value:0.0 in
  Stats.Time_weighted.update tw ~now:1.0 ~value:10.0;
  Stats.Time_weighted.update tw ~now:3.0 ~value:2.0;
  (* 0 for 1s, 10 for 2s, 2 for 1s -> (0 + 20 + 2) / 4 *)
  check_float "time-weighted mean" 5.5 (Stats.Time_weighted.average tw ~now:4.0)

let tw_reset () =
  let tw = Stats.Time_weighted.create ~start:0.0 ~value:4.0 in
  Stats.Time_weighted.update tw ~now:2.0 ~value:8.0;
  Stats.Time_weighted.reset tw ~now:3.0;
  (* window restarts at t=3 holding 8 *)
  check_float "after reset" 8.0 (Stats.Time_weighted.average tw ~now:5.0)

let tw_monotonic_time () =
  let tw = Stats.Time_weighted.create ~start:0.0 ~value:1.0 in
  Stats.Time_weighted.update tw ~now:1.0 ~value:2.0;
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Stats.Time_weighted: time went backwards") (fun () ->
      Stats.Time_weighted.update tw ~now:0.5 ~value:3.0)

let histogram_basic () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -5.0; 50.0 ];
  let counts = Stats.Histogram.counts h in
  check_int "bin 0 (incl clamped low)" 2 counts.(0);
  check_int "bin 1" 2 counts.(1);
  check_int "bin 9 (incl clamped high)" 2 counts.(9);
  check_int "total" 6 (Stats.Histogram.total h);
  let pdf = Stats.Histogram.pdf h in
  check_float_eps 1e-9 "pdf sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 pdf);
  check_float "bin center" 0.5 (Stats.Histogram.bin_center h 0)

let jain_known () =
  check_float "equal shares" 1.0 (Stats.jain_index [| 3.0; 3.0; 3.0 |]);
  check_float "one hog" (1.0 /. 3.0) (Stats.jain_index [| 1.0; 0.0; 0.0 |]);
  check_float "empty" 1.0 (Stats.jain_index [||]);
  check_float "all zero" 1.0 (Stats.jain_index [| 0.0; 0.0 |])

let jain_qcheck_bounds =
  QCheck.Test.make ~name:"jain index within [1/n, 1]" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 20) (float_bound_exclusive 100.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let j = Stats.jain_index arr in
      let n = float_of_int (Array.length arr) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let percentile_basic () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.percentile xs 0.5);
  check_float "min" 1.0 (Stats.percentile xs 0.0);
  check_float "max" 5.0 (Stats.percentile xs 1.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile [||] 0.5))

(* --- Fvec ------------------------------------------------------------------ *)

let fvec_push_get () =
  let v = Fvec.create ~capacity:2 () in
  for i = 0 to 99 do
    Fvec.push v (float_of_int i)
  done;
  check_int "length" 100 (Fvec.length v);
  check_float "get 57" 57.0 (Fvec.get v 57);
  check_int "to_array length" 100 (Array.length (Fvec.to_array v));
  Alcotest.check_raises "oob" (Invalid_argument "Fvec.get: index out of bounds")
    (fun () -> ignore (Fvec.get v 100))

let fvec_lower_bound () =
  let v = Fvec.create () in
  List.iter (Fvec.push v) [ 1.0; 3.0; 3.0; 7.0 ];
  check_int "before all" 0 (Fvec.lower_bound v 0.5);
  check_int "exact" 1 (Fvec.lower_bound v 3.0);
  check_int "between" 3 (Fvec.lower_bound v 5.0);
  check_int "after all" 4 (Fvec.lower_bound v 9.0)

let heap_reuse_after_clear () =
  let h = Heap.create () in
  Heap.add h ~time:1.0 ~seq:0 "x";
  Heap.clear h;
  Heap.add h ~time:2.0 ~seq:1 "y";
  (match Heap.pop h with
  | Some (t, _, v) ->
      check_float "time" 2.0 t;
      Alcotest.(check string) "value" "y" v
  | None -> Alcotest.fail "empty after reuse");
  check_bool "drained" true (Heap.is_empty h)

let sim_stop_is_resumable () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.at sim (ts 1.0) (thunk (fun () ->
      incr ran;
      Sim.stop sim));
  Sim.at sim (ts 2.0) (thunk (fun () -> incr ran));
  Sim.run sim;
  check_int "stopped after first" 1 !ran;
  Sim.run sim;
  check_int "resumes on next run" 2 !ran

let rng_same_seed_same_split_tree () =
  let walk seed =
    let root = Rng.create seed in
    let a = Rng.split root in
    let b = Rng.split root in
    (Rng.float a 1.0, Rng.float b 1.0, Rng.float root 1.0)
  in
  check_bool "split tree deterministic" true (walk 3 = walk 3);
  check_bool "different seeds diverge" true (walk 3 <> walk 4)

let acc_single_sample () =
  let acc = Stats.Acc.create () in
  Stats.Acc.add acc 5.0;
  check_float "mean" 5.0 (Stats.Acc.mean acc);
  check_float "variance of one sample" 0.0 (Stats.Acc.variance acc);
  check_float "min = max" (Stats.Acc.min acc) (Stats.Acc.max acc)

let histogram_validation () =
  Alcotest.check_raises "zero bins" (Invalid_argument "Stats.Histogram.create")
    (fun () -> ignore (Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Stats.Histogram.create") (fun () ->
      ignore (Stats.Histogram.create ~lo:1.0 ~hi:0.0 ~bins:4))

let percentile_p_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 1.5))

let tw_zero_span () =
  let tw = Stats.Time_weighted.create ~start:1.0 ~value:7.0 in
  check_float "zero-span average is current value" 7.0
    (Stats.Time_weighted.average tw ~now:1.0)

let fvec_clear_and_iter () =
  let v = Fvec.create () in
  List.iter (Fvec.push v) [ 1.0; 2.0; 3.0 ];
  let sum = ref 0.0 in
  Fvec.iter (fun x -> sum := !sum +. x) v;
  check_float "iter sums" 6.0 !sum;
  Fvec.clear v;
  check_int "cleared" 0 (Fvec.length v)

(* --- Audit ------------------------------------------------------------------ *)

let audit_clean_run () =
  let sim = Sim.create () in
  let a = Audit.create ~interval:(ts 0.05) sim in
  Audit.add_check a ~subject:"always-ok" (fun ~now:_ -> None);
  Sim.run ~until:(ts 1.0) sim;
  check_bool "ok" true (Audit.ok a);
  check_int "no violations" 0 (Audit.violation_count a);
  Alcotest.(check string)
    "summary" "audit: no invariant violations" (Audit.summary a)

let audit_records_failing_check () =
  let sim = Sim.create () in
  let a = Audit.create ~interval:(ts 0.1) ~max_kept:3 sim in
  Audit.add_check a ~subject:"queue" (fun ~now ->
      if now > 0.55 then Some "count drifted" else None);
  Sim.run ~until:(ts 1.0) sim;
  check_bool "not ok" false (Audit.ok a);
  (* ticks at 0.6..1.0 all fail; only the first [max_kept] are kept
     verbatim but the total stays exact *)
  check_bool "total is exact" true (Audit.violation_count a >= 4);
  check_int "kept capped" 3 (List.length (Audit.violations a));
  (match Audit.violations a with
  | { Audit.time; subject; message } :: _ ->
      check_bool "oldest first, with sim time" true (time > 0.55 && time < 0.75);
      Alcotest.(check string) "subject" "queue" subject;
      Alcotest.(check string) "message" "count drifted" message
  | [] -> Alcotest.fail "no violation kept");
  check_bool "summary names the first violation" true
    (String.length (Audit.summary a) > 0 && not (Audit.ok a))

let audit_check_finite () =
  let sim = Sim.create () in
  let a = Audit.create sim in
  check_bool "finite passes" true
    (Audit.check_finite a ~now:0.0 ~subject:"x" ~what:"v" 1.0);
  check_bool "nan caught" false
    (Audit.check_finite a ~now:0.0 ~subject:"x" ~what:"v" Float.nan);
  check_bool "infinity caught" false
    (Audit.check_finite a ~now:0.0 ~subject:"x" ~what:"v" Float.infinity);
  check_int "two violations" 2 (Audit.violation_count a)

let sim_watchdog_semantics () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Sim.set_watchdog: budget must be positive") (fun () ->
      Sim.set_watchdog sim ~max_events_per_instant:0 ignore);
  let trips = ref 0 in
  Sim.set_watchdog sim ~max_events_per_instant:10 (fun _ -> incr trips);
  (* 25 zero-delay events at t=1: over budget, but the trip must fire
     exactly once for the stuck instant *)
  let n = ref 0 in
  let rec spin () =
    incr n;
    if !n < 25 then Sim.after sim (ts 0.0) (thunk spin)
  in
  Sim.at sim (ts 1.0) (thunk spin);
  Sim.at sim (ts 2.0) (thunk ignore);
  Sim.run sim;
  check_int "one trip per stuck instant" 1 !trips;
  check_int "all events still ran" 25 !n;
  (* once cleared, the same burst goes unreported *)
  Sim.clear_watchdog sim;
  n := 0;
  Sim.at sim (ts 3.0) (thunk spin);
  Sim.run sim;
  check_int "no trip after clear" 1 !trips

let audit_watchdog_stops_livelock () =
  let sim = Sim.create () in
  let a = Audit.create sim in
  Audit.enable_watchdog ~max_events_per_instant:500 a;
  let spins = ref 0 in
  let rec spin () =
    incr spins;
    Sim.after sim (ts 0.0) (thunk spin)
  in
  Sim.at sim (ts 0.25) (thunk spin);
  Sim.run ~until:(ts 10.0) sim;
  check_bool "trip recorded as violation" false (Audit.ok a);
  (match Audit.violations a with
  | { Audit.subject = "sim"; message; _ } :: _ ->
      check_bool "message names livelock" true
        (String.length message > 0
        && String.sub message 0 8 = "livelock")
  | _ -> Alcotest.fail "expected a sim-subject violation");
  check_bool "stopped promptly instead of hanging" true (!spins <= 502);
  check_float "clock stuck at the livelock instant" 0.25 (Sim.now sim)

let sim_event_budget_trips_and_resumes () =
  let sim = Sim.create () in
  let ran = ref 0 in
  for i = 1 to 1000 do
    Sim.at sim (ts (float_of_int i *. 0.001)) (thunk (fun () -> incr ran))
  done;
  Sim.set_budget sim ~max_events:100 ();
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Sim.Budget_exceeded { events; exhausted; now } ->
      check_int "partial stats: events executed" 100 events;
      Alcotest.(check string) "which budget tripped" "max_events" exhausted;
      check_bool "partial stats: sim time advanced" true
        (Units.Time.to_s now >= 0.1));
  check_int "exactly the budget ran" 100 !ran;
  (* The budget check fires before the pop, so the offending event is
     still queued: clearing the budget makes the sim resumable. *)
  Sim.clear_budget sim;
  Sim.run sim;
  check_int "remaining events run after clear_budget" 1000 !ran;
  check_int "events_executed counts the whole run" 1000
    (Sim.events_executed sim)

let sim_wall_budget_stops_runaway () =
  let sim = Sim.create () in
  (* An unbounded microsecond ticker: without ~until this would run
     forever; only the wall budget can stop it. *)
  Test_support.ticker sim ~start:(ts 1e-6) (ts 1e-6) ignore;
  Sim.set_budget sim ~max_wall:(Units.Time.ms 5.0) ();
  match Sim.run sim with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Sim.Budget_exceeded { exhausted; events; _ } ->
      Alcotest.(check string) "which budget tripped" "max_wall" exhausted;
      check_bool "made progress before tripping" true (events > 0)

let sim_budget_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "no budget at all"
    (Invalid_argument "Sim.set_budget: set max_events, max_wall or both")
    (fun () -> Sim.set_budget sim ());
  Alcotest.check_raises "zero events"
    (Invalid_argument "Sim.set_budget: max_events must be positive")
    (fun () -> Sim.set_budget sim ~max_events:0 ());
  Alcotest.check_raises "zero wall"
    (Invalid_argument "Sim.set_budget: max_wall must be positive")
    (fun () -> Sim.set_budget sim ~max_wall:Units.Time.zero ())

(* --- Scheduler selection and batch accounting ----------------------------- *)

let sim_scheduler_choice () =
  Alcotest.(check bool)
    "default is the wheel" true
    (Sim.scheduler (Sim.create ()) = `Wheel);
  Alcotest.(check bool)
    "heap selectable" true
    (Sim.scheduler (Sim.create ~scheduler:`Heap ()) = `Heap)

(* Byte-identity across schedulers at the Sim level: an event mix with
   ties, nested scheduling and rng draws renders the same trace under
   heap and wheel. (The full-experiment replays live in
   test_determinism.ml.) *)
let sim_scheduler_equivalence () =
  let trace scheduler =
    let sim = Sim.create ~scheduler () in
    let buf = Buffer.create 256 in
    let emit tag = Printf.bprintf buf "%g %s\n" (Sim.now sim) tag in
    for i = 0 to 19 do
      let t = float_of_int (i mod 5) *. 0.5 in
      Sim.at sim (ts t) (thunk (fun () -> emit (Printf.sprintf "e%d" i)))
    done;
    Sim.at sim (ts 0.25) (thunk (fun () ->
        emit "nest";
        Sim.after sim (ts 0.25) (thunk (fun () -> emit "nested"));
        Sim.after sim (ts 0.0) (thunk (fun () -> emit "instant"))));
    Test_support.ticker sim ~start:(ts 0.1) (ts 0.7) (fun () ->
        emit (Printf.sprintf "tick %.3f" (Rng.float (Sim.rng sim) 1.0)));
    Sim.run ~until:(ts 3.0) sim;
    Buffer.contents buf
  in
  Alcotest.(check string) "same trace" (trace `Heap) (trace `Wheel)

(* Satellite: budget accounting under batch-unrolled events.
   [charge_events] must advance [events_executed] and trip the
   max_events budget at the charging event, not wall_sample_period
   later. *)
let sim_charge_events_accounting () =
  let sim = Sim.create () in
  for i = 1 to 10 do
    (* each scheduled event stands for a batch of 1 + 9 logical events *)
    Sim.at sim (ts (float_of_int i)) (thunk (fun () -> Sim.charge_events sim 9))
  done;
  Sim.run sim;
  check_int "unrolled events counted" 100 (Sim.events_executed sim);
  Alcotest.check_raises "negative charge"
    (Invalid_argument "Sim.charge_events: negative count") (fun () ->
      Sim.charge_events sim (-1))

let sim_charge_events_trips_budget () =
  let sim = Sim.create () in
  let ran = ref 0 in
  for i = 1 to 10 do
    Sim.at sim (ts (float_of_int i)) (thunk (fun () ->
        incr ran;
        Sim.charge_events sim 9))
  done;
  Sim.set_budget sim ~max_events:35 ();
  match Sim.run sim with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Sim.Budget_exceeded { events; exhausted; _ } ->
      Alcotest.(check string) "which budget tripped" "max_events" exhausted;
      (* events 1-3 charge to 30; event 4's charge crosses 35 and must
         trip right there (at 40 logical), not at the next loop check *)
      check_int "tripped inside the charging event" 40 events;
      check_int "four batches ran" 4 !ran

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ heap_qcheck_sorted; wheel_heap_equiv_qcheck; jain_qcheck_bounds ]

let suite =
  [
    ("heap pop order", `Quick, heap_pop_order);
    ("heap FIFO on equal times", `Quick, heap_fifo_ties);
    ("heap interleaved ops", `Quick, heap_interleaved);
    ("heap peek", `Quick, heap_peek);
    ("heap pop releases payload", `Quick, heap_pop_releases_payload);
    ("heap drain releases all payloads", `Quick, heap_drain_releases_all);
    ("heap exn-based min/pop", `Quick, heap_exn_api);
    ("heap hot path stays allocation-free", `Quick, heap_hot_path_allocation_free);
    ("wheel pop order", `Quick, wheel_pop_order);
    ("wheel FIFO on equal times", `Quick, wheel_fifo_ties);
    ("wheel exn-based min/pop", `Quick, wheel_exn_api);
    ("wheel insert behind scan cursor", `Quick, wheel_insert_behind_scan);
    ("wheel peek", `Quick, wheel_peek);
    ("wheel reuse after clear", `Quick, wheel_reuse_after_clear);
    ("wheel pop releases payload", `Quick, wheel_pop_releases_payload);
    ("wheel resize boundaries match heap", `Quick, wheel_resize_boundaries);
    ("wheel tracks density shift", `Quick, wheel_tracks_density_shift);
    ("wheel hot path stays allocation-free", `Quick, wheel_hot_path_allocation_free);
    ("sim scheduler choice", `Quick, sim_scheduler_choice);
    ("sim scheduler heap/wheel equivalence", `Quick, sim_scheduler_equivalence);
    ("sim charge_events accounting", `Quick, sim_charge_events_accounting);
    ("sim charge_events trips budget", `Quick, sim_charge_events_trips_budget);
    ("sim event order", `Quick, sim_event_order);
    ("sim until semantics", `Quick, sim_until_semantics);
    ("sim nested scheduling", `Quick, sim_nested_scheduling);
    ("sim every + stop", `Quick, sim_every_and_stop);
    ("sim rejects past/negative", `Quick, sim_rejects_past);
    ("sim counts events", `Quick, sim_counts_events);
    ("sim reserved keys", `Quick, sim_reserved_keys);
    ("rng determinism", `Quick, rng_determinism);
    ("rng split", `Quick, rng_split_independence);
    ("rng ranges", `Quick, rng_ranges);
    ("rng exponential mean", `Quick, rng_exponential_mean);
    ("rng pareto", `Quick, rng_pareto_properties);
    ("rng bounded pareto", `Quick, rng_bounded_pareto_in_range);
    ("rng geometric", `Quick, rng_geometric);
    ("rng bernoulli", `Quick, rng_bernoulli_rate);
    ("stats acc moments", `Quick, acc_moments);
    ("stats acc empty", `Quick, acc_empty);
    ("stats time-weighted", `Quick, tw_average);
    ("stats tw reset", `Quick, tw_reset);
    ("stats tw monotonic", `Quick, tw_monotonic_time);
    ("stats histogram", `Quick, histogram_basic);
    ("stats jain known", `Quick, jain_known);
    ("stats percentile", `Quick, percentile_basic);
    ("heap reuse after clear", `Quick, heap_reuse_after_clear);
    ("sim stop is resumable", `Quick, sim_stop_is_resumable);
    ("rng split tree deterministic", `Quick, rng_same_seed_same_split_tree);
    ("stats acc single sample", `Quick, acc_single_sample);
    ("stats histogram validation", `Quick, histogram_validation);
    ("stats percentile validation", `Quick, percentile_p_validation);
    ("stats tw zero span", `Quick, tw_zero_span);
    ("fvec clear/iter", `Quick, fvec_clear_and_iter);
    ("fvec push/get", `Quick, fvec_push_get);
    ("fvec lower_bound", `Quick, fvec_lower_bound);
    ("audit clean run", `Quick, audit_clean_run);
    ("audit records violations", `Quick, audit_records_failing_check);
    ("audit check_finite", `Quick, audit_check_finite);
    ("sim watchdog semantics", `Quick, sim_watchdog_semantics);
    ("audit watchdog stops livelock", `Quick, audit_watchdog_stops_livelock);
    ("sim event budget trips and resumes", `Quick, sim_event_budget_trips_and_resumes);
    ("sim wall budget stops a runaway", `Quick, sim_wall_budget_stops_runaway);
    ("sim budget validation", `Quick, sim_budget_validation);
  ]
  @ qsuite
