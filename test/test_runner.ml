(* The crash-safe runner stack: store round-trips and checksum rejection,
   atomic writes, graceful degradation of poisoned/over-budget cells to
   FAILED/TIMEOUT markers, and resume-after-partial-loss byte identity —
   the properties `experiments_cli --resume` rests on. *)

open Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A unique, not-yet-existing directory name; Store.open_ creates it. *)
let fresh_dir () =
  let base = Filename.temp_file "pert-store-test" "" in
  Sys.remove base;
  base

(* --- store ---------------------------------------------------------------- *)

let store_round_trip () =
  let store = Store.open_ ~dir:(fresh_dir ()) in
  let k =
    Store.key ~experiment:"exp" ~scheme:"pert" ~seed:7 ~point:"1.5"
      ~extra:"abc" ()
  in
  Alcotest.(check (option string)) "miss before put" None (Store.find store k);
  let payload = "hello\nworld \000 binary bytes" in
  Store.put store k ~payload;
  Alcotest.(check (option string)) "round trip" (Some payload)
    (Store.find store k);
  let k' =
    Store.key ~experiment:"exp" ~scheme:"pert" ~seed:8 ~point:"1.5"
      ~extra:"abc" ()
  in
  Alcotest.(check (option string)) "different key still misses" None
    (Store.find store k');
  Store.put store k ~payload:"second";
  Alcotest.(check (option string)) "last writer wins" (Some "second")
    (Store.find store k)

let canonical_is_collision_safe () =
  (* Field separators in free text must not let two distinct keys
     canonicalise identically. *)
  let c1 =
    Store.canonical (Store.key ~experiment:"a|b" ~scheme:"c" ())
  in
  let c2 = Store.canonical (Store.key ~experiment:"a" ~scheme:"b|c" ()) in
  check_bool "sanitised fields cannot collide" true (c1 <> c2)

let rewrite_file path f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f content);
  close_out oc

let checksum_rejects_corruption () =
  let store = Store.open_ ~dir:(fresh_dir ()) in
  let k = Store.key ~experiment:"exp" ~point:"p" () in
  Store.put store k ~payload:"precious result bytes";
  let path = Store.path store k in
  check_bool "cell file exists" true (Sys.file_exists path);
  (* Flip one payload byte: the checksum line no longer matches. *)
  rewrite_file path (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b);
  Alcotest.(check (option string)) "corrupt cell reads as a miss" None
    (Store.find store k);
  (* A torn (truncated) write must read as a miss, not raise. *)
  Store.put store k ~payload:"precious result bytes";
  rewrite_file path (fun s -> String.sub s 0 (String.length s / 2));
  Alcotest.(check (option string)) "torn cell reads as a miss" None
    (Store.find store k);
  (* Garbage without even a header line. *)
  rewrite_file path (fun _ -> "not a store cell");
  Alcotest.(check (option string)) "garbage reads as a miss" None
    (Store.find store k)

let write_atomic_basics () =
  let dir = fresh_dir () in
  ignore (Store.open_ ~dir);
  let path = Filename.concat dir "out.csv" in
  Store.write_atomic ~path "a,b\n1,2\n";
  let ic = open_in_bin path in
  let got = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "content written" "a,b\n1,2\n" got;
  check_bool "no temp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  Store.write_atomic ~path "x";
  let ic = open_in_bin path in
  let got = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "overwrite replaces" "x" got

(* --- graceful degradation -------------------------------------------------- *)

let poison_key i = Store.key ~experiment:"poison" ~point:(string_of_int i) ()

let poisoned_cell_degrades () =
  let xs = [ 0; 1; 2; 3 ] in
  let f ~ckpt:_ i = if i = 2 then failwith "poisoned point" else i * 7 in
  let render jobs =
    Runner.map (Runner.ctx ~jobs ~retries:2 ()) ~key:poison_key f xs
    |> List.map (function
         | Ok v -> string_of_int v
         | Error fl -> Runner.failure_cell fl)
  in
  let r1 = render 1 in
  check_int "all cells rendered" 4 (List.length r1);
  Alcotest.(check string) "healthy cell 0" "0" (List.nth r1 0);
  Alcotest.(check string) "healthy cell 3" "21" (List.nth r1 3);
  let marker = List.nth r1 2 in
  check_bool "poisoned cell is a FAILED marker" true
    (String.length marker > 7 && String.sub marker 0 7 = "FAILED(");
  check_bool "marker is recognised" true (Output.is_failure_cell marker);
  Alcotest.(check (list string)) "identical at jobs=4" r1 (render 4);
  (* The attempt count must reflect retries. *)
  match Runner.map (Runner.ctx ~retries:2 ()) ~key:poison_key f [ 2 ] with
  | [ Error (Runner.Failed { attempts; reason }) ] ->
      check_int "initial try + 2 retries" 3 attempts;
      check_bool "reason recorded" true (String.length reason > 0)
  | _ -> Alcotest.fail "expected a Failed cell"

let failures_never_cached () =
  let store = Store.open_ ~dir:(fresh_dir ()) in
  let ctx = Runner.ctx ~store () in
  let calls = ref 0 in
  let f ~ckpt:_ _ =
    incr calls;
    if !calls = 1 then failwith "transient" else 42
  in
  (match Runner.map ctx ~key:poison_key f [ 0 ] with
  | [ Error (Runner.Failed _) ] -> ()
  | _ -> Alcotest.fail "expected the first run to fail");
  (match Runner.map ctx ~key:poison_key f [ 0 ] with
  | [ Ok 42 ] -> ()
  | _ -> Alcotest.fail "failure must not be cached — rerun must recompute");
  (* ...but the success is cached: a third run must not call f again. *)
  (match Runner.map ctx ~key:poison_key f [ 0 ] with
  | [ Ok 42 ] -> ()
  | _ -> Alcotest.fail "success must replay from the store");
  check_int "two computations, then a cache hit" 2 !calls

(* A deliberately small dumbbell so each cell runs in well under a
   second at any scale. *)
let tiny ?(seed = 3) scheme =
  Dumbbell.uniform_flows
    {
      Dumbbell.default with
      Dumbbell.scheme;
      bandwidth = 5e6;
      duration = 4.0;
      warmup = 1.0;
      seed;
    }
    ~n:4

let budget_timeout_marks_cell () =
  let ctx = Runner.ctx ~max_events:200 ~retries:3 () in
  match
    Dumbbell.run_cells ~ctx ~experiment:"tiny-timeout"
      [ ("x", tiny Schemes.Pert) ]
  with
  | [ Error (Runner.Timed_out reason) ] ->
      check_bool "reason recorded" true (String.length reason > 0);
      Alcotest.(check string) "renders as the TIMEOUT marker"
        Output.timeout_cell
        (Runner.failure_cell (Runner.Timed_out reason))
  | _ -> Alcotest.fail "expected a single TIMEOUT cell"

(* The one cell runner of the dumbbell families (Faults and Adversarial
   summarise through it too) builds every cell's simulation on
   [ctx.scheduler], whatever the cell's config says. *)
let shared_runner_uses_ctx_scheduler () =
  let schedulers ctx config_scheduler =
    Dumbbell.run_cells_with ~ctx ~experiment:"scheduler"
      ~summary:(fun built _ ->
        match Sim_engine.Sim.scheduler (Netsim.Topology.sim built.Dumbbell.topo) with
        | `Heap -> "heap"
        | `Wheel -> "wheel")
      (List.map
         (fun s ->
           ( Schemes.name s,
             { (tiny s) with Dumbbell.scheduler = config_scheduler } ))
         [ Schemes.Pert; Schemes.Sack_droptail ])
    |> List.map (function Ok s -> s | Error f -> Runner.failure_cell f)
  in
  Alcotest.(check (list string)) "heap context over wheel configs"
    [ "heap"; "heap" ]
    (schedulers (Runner.ctx ~scheduler:`Heap ()) `Wheel);
  Alcotest.(check (list string)) "wheel context over heap configs"
    [ "wheel"; "wheel" ]
    (schedulers (Runner.ctx ~scheduler:`Wheel ()) `Heap)

let render_cells cells =
  String.concat "|"
    (List.map
       (function
         | Ok (r : Dumbbell.result) ->
             Printf.sprintf "%.17g,%.17g,%.17g"
               (Units.Pkts.to_float r.Dumbbell.avg_queue_pkts)
               r.Dumbbell.utilization r.Dumbbell.jain
         | Error fl -> Runner.failure_cell fl)
       cells)

let resume_replays_byte_identical () =
  let specs =
    List.map
      (fun s -> (Schemes.name s, tiny s))
      [ Schemes.Pert; Schemes.Sack_droptail ]
  in
  let run ctx = render_cells (Dumbbell.run_cells ~ctx ~experiment:"resume" specs) in
  let plain = run Runner.default in
  let dir = fresh_dir () in
  let store = Store.open_ ~dir in
  let ctx = Runner.ctx ~store () in
  Alcotest.(check string) "store does not change output" plain (run ctx);
  let cells =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cell")
  in
  check_int "every cell committed" 2 (List.length cells);
  (* Simulate a crash that lost one in-flight cell: the rerun recomputes
     only the missing one and must be byte-identical. *)
  Sys.remove (Filename.concat dir (List.hd cells));
  Alcotest.(check string) "resume after partial loss" plain (run ctx);
  (* Pure replay: everything served from the store. *)
  Alcotest.(check string) "pure replay" plain (run ctx)

let failure_count_counts_markers () =
  let t =
    {
      Output.title = "t";
      header = [ "a"; "b" ];
      rows =
        [
          [ "1"; Output.timeout_cell ];
          [ Output.failed_cell ~reason:"x"; "2" ];
          [ "3"; "4" ];
        ];
    }
  in
  check_int "two failure cells" 2 (Output.failure_count t);
  check_bool "TIMEOUT recognised" true
    (Output.is_failure_cell Output.timeout_cell);
  check_bool "FAILED recognised" true
    (Output.is_failure_cell (Output.failed_cell ~reason:"boom"));
  check_bool "ordinary cell not flagged" false (Output.is_failure_cell "3.14")

let suite =
  [
    ("store round trip", `Quick, store_round_trip);
    ("store canonical collision-safe", `Quick, canonical_is_collision_safe);
    ("store checksum rejects corruption", `Quick, checksum_rejects_corruption);
    ("write_atomic basics", `Quick, write_atomic_basics);
    ("poisoned cell degrades to FAILED", `Quick, poisoned_cell_degrades);
    ("failures never cached", `Quick, failures_never_cached);
    ("event budget renders TIMEOUT", `Quick, budget_timeout_marks_cell);
    ("resume replays byte-identical", `Slow, resume_replays_byte_identical);
    ("Output.failure_count", `Quick, failure_count_counts_markers);
    ("cells run on the context's scheduler", `Quick,
      shared_runner_uses_ctx_scheduler);
  ]
