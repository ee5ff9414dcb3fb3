(* The Parallel work-queue pool: submission-order results, worker
   exception propagation with the failing task's index, and end-to-end
   bit-identity of experiment tables across pool widths — the property
   the whole -j flag rests on. *)

open Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let map_matches_sequential () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let xs = List.init n (fun i -> i) in
          let expected = List.map (fun i -> (i * i) + 1) xs in
          let got = Parallel.map ~jobs (fun i -> (i * i) + 1) xs in
          Alcotest.(check (list int))
            (Printf.sprintf "map at jobs=%d over %d tasks" jobs n)
            expected got)
        [ 0; 1; 7; 64 ])
    [ 1; 2; 4 ]

let results_in_submission_order () =
  (* Tasks finish in scrambled order (later indices do less work); the
     result list must still line up with the input list. *)
  let work i =
    let acc = ref 0 in
    for k = 0 to (64 - i) * 1000 do
      acc := (!acc + k) mod 7919
    done;
    (i, !acc)
  in
  let got = Parallel.map ~jobs:4 work (List.init 64 (fun i -> i)) in
  List.iteri (fun i (j, _) -> check_int "slot i holds task i" i j) got

let exception_carries_index () =
  let tasks = List.init 8 (fun i -> i) in
  match
    Parallel.map ~jobs:4
      (fun i -> if i = 3 then failwith "boom" else i)
      tasks
  with
  | _ -> Alcotest.fail "expected Parallel.Task_error"
  | exception Parallel.Task_error { index; exn } -> (
      check_int "failing task index" 3 index;
      match exn with
      | Failure m -> Alcotest.(check string) "original exception" "boom" m
      | _ -> Alcotest.fail "wrong exception payload")

let lowest_index_wins () =
  (* With several failures the reported one must be the lowest-index
     task, independent of completion order. *)
  match
    Parallel.map ~jobs:4
      (fun i -> if i >= 5 then failwith "late" else i)
      (List.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Parallel.Task_error"
  | exception Parallel.Task_error { index; _ } ->
      check_int "first failing index reported" 5 index

let sequential_map_wraps_task_error () =
  (* jobs <= 1 takes the no-domain path; its failures must still surface
     as Task_error with the task index, exactly like the pool path. *)
  List.iter
    (fun n ->
      match
        Parallel.map ~jobs:1
          (fun i -> if i = n - 1 then failwith "seq-boom" else i)
          (List.init n (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Parallel.Task_error"
      | exception Parallel.Task_error { index; exn } -> (
          check_int "sequential failing index" (n - 1) index;
          match exn with
          | Failure m -> Alcotest.(check string) "payload" "seq-boom" m
          | _ -> Alcotest.fail "wrong exception payload"))
    [ 1; 8 ]

let with_pool jobs f =
  let pool = Parallel.create ~jobs in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

(* A rendezvous of two tasks: each announces itself, then waits for the
   other, and returns whether it saw it. Both see each other only when
   two domains run them at once. The wait is bounded by a spin count
   (2e8 [Domain.cpu_relax] calls, a few seconds), not a clock, so a
   pool that runs the tasks one after the other fails the test rather
   than hanging it. *)
let rendezvous arrived () =
  Atomic.incr arrived;
  let rec spin n =
    Atomic.get arrived >= 2
    || n > 0
       &&
       (Domain.cpu_relax ();
        spin (n - 1))
  in
  spin 200_000_000

let jobs_2_runs_two_tasks_at_once () =
  let arrived = Atomic.make 0 in
  Alcotest.(check (list bool))
    "Parallel.map ~jobs:2: both tasks saw each other" [ true; true ]
    (Parallel.map ~jobs:2 (fun () -> rendezvous arrived ()) [ (); () ]);
  let arrived = Atomic.make 0 in
  let seen =
    with_pool 2 (fun pool ->
        List.init 2 (fun i ->
            Parallel.submit_supervised pool ~seed:i (fun ~deadline:_ ->
                rendezvous arrived ()))
        |> List.map (fun fut ->
               match Parallel.await fut with
               | Ok (Parallel.Ok seen) -> seen
               | _ -> Alcotest.fail "expected a supervised Ok"))
  in
  Alcotest.(check (list bool))
    "submit_supervised on a jobs:2 pool: both tasks saw each other"
    [ true; true ] seen

(* The claim-then-wait pattern of the fig2-4 trace cache: two tasks ask
   for the same value at once; the one that claims it computes it, the
   other parks in [Guard.wait] until it is published. The claimant holds
   its claim until the other task has seen it (bounded by a spin count,
   as above), so the wait path really runs. The value must be computed
   once, and both tasks must get it. *)
let guard_wait_computes_once () =
  let slot = Parallel.Guard.create (ref `Free) in
  let computed = Atomic.make 0 and waited = Atomic.make 0 in
  let ask () =
    let claimed =
      Parallel.Guard.with_ slot (fun s ->
          let rec lookup () =
            match !s with
            | `Done v -> Some v
            | `Claimed ->
                Atomic.incr waited;
                Parallel.Guard.wait slot;
                lookup ()
            | `Free ->
                s := `Claimed;
                None
          in
          lookup ())
    in
    match claimed with
    | Some v -> v
    | None ->
        let rec hold n =
          if Atomic.get waited = 0 && n > 0 then begin
            Domain.cpu_relax ();
            hold (n - 1)
          end
        in
        hold 200_000_000;
        Atomic.incr computed;
        Parallel.Guard.with_ slot (fun s -> s := `Done 42);
        42
  in
  Alcotest.(check (list int))
    "both tasks get the value" [ 42; 42 ]
    (Parallel.map ~jobs:2 ask [ (); () ]);
  check_bool "the other task waited for the claim" true
    (Atomic.get waited >= 1);
  check_int "the value was computed once" 1 (Atomic.get computed)

let supervised_retry_then_succeed () =
  with_pool 1 (fun pool ->
      (* Atomic, not ref: the counter is written on whatever domain runs
         the task and read back here (pertscan S1). *)
      let calls = Atomic.make 0 in
      let fut =
        Parallel.submit_supervised pool ~retries:3 ~seed:11
          (fun ~deadline:_ ->
            Atomic.incr calls;
            if Atomic.get calls < 3 then failwith "flaky";
            Atomic.get calls * 10)
      in
      match Parallel.await fut with
      | Ok (Parallel.Ok v) ->
          check_int "third attempt's value" 30 v;
          check_int "two failures then success" 3 (Atomic.get calls)
      | _ -> Alcotest.fail "expected a supervised Ok")

let supervised_exhausts_retries () =
  with_pool 1 (fun pool ->
      let fut =
        Parallel.submit_supervised pool ~retries:2 ~seed:11
          (fun ~deadline:_ -> failwith "always")
      in
      match Parallel.await fut with
      | Ok (Parallel.Failed attempts) ->
          check_int "initial try + 2 retries" 3 (List.length attempts);
          List.iteri
            (fun i (a : Parallel.attempt) ->
              check_int "attempts numbered from 1" (i + 1) a.attempt;
              check_bool "error recorded" true
                (String.length a.error > 0))
            attempts;
          let last = List.nth attempts 2 in
          check_bool "no backoff after the final attempt" true
            (Float.equal (Units.Time.to_s last.backoff) 0.0)
      | _ -> Alcotest.fail "expected a supervised Failed")

let backoff_trace pool ~seed =
  let fut =
    Parallel.submit_supervised pool ~retries:3 ~seed (fun ~deadline:_ ->
        failwith "always")
  in
  match Parallel.await fut with
  | Ok (Parallel.Failed attempts) ->
      List.map (fun (a : Parallel.attempt) -> Units.Time.to_s a.backoff) attempts
  | _ -> Alcotest.fail "expected a supervised Failed"

let supervised_backoff_deterministic () =
  with_pool 1 (fun pool ->
      let t1 = backoff_trace pool ~seed:5 in
      let t2 = backoff_trace pool ~seed:5 in
      Alcotest.(check (list (float 0.0)))
        "same seed, byte-identical backoff trace" t1 t2;
      let t3 = backoff_trace pool ~seed:6 in
      check_bool "different seed, different backoffs" true (t1 <> t3);
      (* Exponential envelope: attempt k+1's pause sits in
         [0.5, 1.5) * 2^k * 20ms. *)
      List.iteri
        (fun k pause ->
          if k < 3 then begin
            let base = 0.020 *. float_of_int (1 lsl k) in
            check_bool "pause within the jittered envelope" true
              (pause >= 0.5 *. base && pause < 1.5 *. base)
          end)
        t1)

exception Fake_deadline

let supervised_timeout_classified () =
  with_pool 1 (fun pool ->
      let calls = Atomic.make 0 in
      let fut =
        Parallel.submit_supervised pool ~retries:5
          ~deadline:(Units.Time.s 0.25)
          ~is_timeout:(function Fake_deadline -> true | _ -> false)
          ~seed:11
          (fun ~deadline ->
            Atomic.incr calls;
            (match deadline with
            | Some d ->
                check_bool "deadline passed to task" true
                  (Float.equal (Units.Time.to_s d) 0.25)
            | None -> Alcotest.fail "deadline not threaded");
            raise Fake_deadline)
      in
      match Parallel.await fut with
      | Ok (Parallel.Timed_out { reason; _ }) ->
          check_int "deadlines are final: no retry" 1 (Atomic.get calls);
          check_bool "reason recorded" true (String.length reason > 0)
      | _ -> Alcotest.fail "expected a supervised Timed_out")

let supervised_identical_across_pool_widths () =
  let outcome_sig jobs =
    with_pool jobs (fun pool ->
        let futs =
          List.init 6 (fun i ->
              Parallel.submit_supervised pool ~retries:2 ~seed:(100 + i)
                (fun ~deadline:_ ->
                  if i mod 3 = 0 then failwith "die" else i * i))
        in
        List.map
          (fun fut ->
            match Parallel.await fut with
            | Ok (Parallel.Ok v) -> Printf.sprintf "ok:%d" v
            | Ok (Parallel.Failed attempts) ->
                Printf.sprintf "failed:%s"
                  (String.concat ";"
                     (List.map
                        (fun (a : Parallel.attempt) ->
                          Printf.sprintf "%d@%.9f" a.attempt
                            (Units.Time.to_s a.backoff))
                        attempts))
            | Ok (Parallel.Timed_out _) -> "timeout"
            | Error _ -> "pool-error")
          futs)
  in
  Alcotest.(check (list string))
    "outcomes and attempt traces identical at jobs=1 vs jobs=4"
    (outcome_sig 1) (outcome_sig 4)

let render tables = String.concat "\n" (List.map Output.to_csv tables)

let family_identical id () =
  match Registry.find id with
  | None -> Alcotest.fail ("unknown experiment family: " ^ id)
  | Some e ->
      let j1 = render (e.Registry.run ~ctx:Runner.default Scale.Smoke) in
      let j4 = render (e.Registry.run ~ctx:(Runner.ctx ~jobs:4 ()) Scale.Smoke) in
      Alcotest.(check string) (id ^ " tables byte-identical at -j1 vs -j4") j1
        j4

let suite =
  [
    ("map matches sequential (0/1/many tasks)", `Quick, map_matches_sequential);
    ("results come back in submission order", `Quick, results_in_submission_order);
    ("worker exception propagates with task index", `Quick, exception_carries_index);
    ("lowest failing index is reported", `Quick, lowest_index_wins);
    ("sequential map wraps Task_error", `Quick, sequential_map_wraps_task_error);
    ("supervised retry then succeed", `Quick, supervised_retry_then_succeed);
    ("supervised exhausts retries", `Quick, supervised_exhausts_retries);
    ("supervised backoff deterministic", `Quick, supervised_backoff_deterministic);
    ("supervised timeout is final", `Quick, supervised_timeout_classified);
    ("supervised outcomes identical across widths", `Quick,
     supervised_identical_across_pool_widths);
    ("faults tables identical -j1 vs -j4", `Slow, family_identical "faults");
    ("fig6 tables identical -j1 vs -j4", `Slow, family_identical "fig6");
    ("jobs=2 runs two tasks at once", `Quick, jobs_2_runs_two_tasks_at_once);
    ("Guard.wait: one task computes, the other waits", `Quick,
     guard_wait_computes_once);
  ]
