(* End-to-end replay regression: running an experiment family twice with
   the same root seed must produce byte-identical result rows. This locks
   in the PR 1 fault-replay guarantee across the whole stack — seeded Rng
   splitting, per-simulation id allocation, and registry-free queue/cc
   introspection — not just per module. Before flow ids and discipline
   introspection became per-simulation, the second in-process run saw
   different process-global counters and could diverge. *)

open Experiments

let render tables =
  String.concat "\n" (List.map Output.to_csv tables)

let run_family ?(ctx = Runner.default) id scale =
  match Registry.find id with
  | None -> Alcotest.fail ("unknown experiment family: " ^ id)
  | Some e -> render (e.Registry.run ~ctx scale)

let byte_identical id scale () =
  let first = run_family id scale in
  let second = run_family id scale in
  Alcotest.(check string) (id ^ " rows byte-identical across reruns") first
    second

(* The PR 9 scheduler-equivalence contract, end to end: the calendar
   queue must pop events in exactly the heap's (time, seq) order, so a
   whole experiment family renders byte-identical tables under either
   scheduler — not approximately equal, identical. *)
let scheduler_invariant id scale () =
  let wheel = run_family ~ctx:(Runner.ctx ~scheduler:`Wheel ()) id scale in
  let heap = run_family ~ctx:(Runner.ctx ~scheduler:`Heap ()) id scale in
  Alcotest.(check string)
    (id ^ " rows byte-identical across heap/wheel schedulers")
    wheel heap

let suite =
  [
    ( "faults family replays byte-identically",
      `Slow,
      byte_identical "faults" Scale.Smoke );
    ( "fig6 family replays byte-identically (smoke)",
      `Slow,
      byte_identical "fig6" Scale.Smoke );
    ( "faults family is scheduler-invariant",
      `Slow,
      scheduler_invariant "faults" Scale.Smoke );
    ( "fig6 family is scheduler-invariant (smoke)",
      `Slow,
      scheduler_invariant "fig6" Scale.Smoke );
    (* The web mix: the workload whose density shift drives the
       calendar queue's pop-side re-width. *)
    ( "fig9 family is scheduler-invariant (smoke)",
      `Slow,
      scheduler_invariant "fig9" Scale.Smoke );
  ]
