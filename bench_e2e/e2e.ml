(* End-to-end benchmark. README.md documents the workloads, the
   metrics and which per-layer metric should move which end-to-end one.

     e2e.exe [--workload W] --seed N --seconds S --trace 0|1 [--json FILE]
     e2e.exe --compare A.json B.json

   Every measured repeat runs in a fresh child process (this executable
   re-run with --child), so heaps and GC state never mix between
   repeats. The last line of standard output is the run's result
   object. *)

module D = Experiments.Dumbbell
module Registry = Experiments.Registry
module Runner = Experiments.Runner
module Sim = Sim_engine.Sim
module T = Netsim.Topology
module Link = Netsim.Link
module Flow = Tcpstack.Flow
module W = Workloads

let now_s () = float_of_int (Ledger.now_ns ()) *. 1e-9

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

let end_to_end = [ m "wall_s" "s"; m "setup_s" "s"; m "peak_heap_mb" "MB" ]

(* A metric that does not apply to a workload (the tables job has no
   scheduler to trace; the cells have no tables) reads 0. *)
let per_layer =
  [
    m "engine.events" "count";
    m "engine.events_per_s" "1/s";
    m "engine.sim_speed" "s/s";
    m "engine.self_s" "s";
    m "engine.events_per_pkt" "ratio";
    m "engine.audit_s" "s";
    m "net.bneck.enqueue.ns" "ns";
    m "net.bneck.dequeue.ns" "ns";
    m "net.access.enqueue.ns" "ns";
    m "net.forward.self_s" "s";
    m "net.bneck.drops" "count";
    m "net.bneck.marks" "count";
    m "tcp.deliver.calls" "count";
    m "tcp.deliver.self_s" "s";
    m "tcp.flows" "count";
    m "tcp.retransmissions" "count";
    m "tcp.timeouts" "count";
    m "cc.on_ack.ns" "ns";
    m "cc.early.ns" "ns";
    m "cc.early.self_s" "s";
    m "cc.early_response_ratio" "ratio";
    m "gc.minor_words_per_event" "words/event";
    m "gc.promoted_words_per_event" "words/event";
    m "gc.major_collections" "count";
    m "ckpt.save_ms" "ms";
    m "ckpt.load_ms" "ms";
    m "ckpt.mb" "MB";
  ]
  @ List.map (fun id -> m ("tables." ^ id ^ ".s") "s") (Registry.ids ())
  @ [ m "parallel.efficiency" "ratio"; m "trace.overhead" "ratio" ]

(* --- child side --------------------------------------------------------

   A child prints one "name value" line per measurement, then a "---"
   line, then the canonical rendering of the workload's result. It
   exits non-zero, with the reason on stderr, when a run fails: an
   exception, an audit violation, a broken paper claim or a snapshot
   that does not restore to the same result. *)

let emit name v = Printf.printf "%s %s\n" name (Json.num v)

let emit_render text =
  print_string "---\n";
  print_string text

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 3)
    fmt

(* The reference job: fixed work that uses only the standard library,
   so no change to the simulator moves it. It builds a 200k-entry
   integer map in scattered key order (about 8 MB of tree nodes, the
   size of a paper cell's heap) and probes it. On a shared machine its
   time follows the load other tenants put on memory and caches, as the
   simulator's does: over 150 repeats of paper-red-ecn on a shared
   2-core VM, log simulation time against log reference time had slope
   1.00, where a float loop had 1.9 and random array reads 0.63. The
   parent scales each repeat by [reference_nominal] over the reference
   time its own process took right after the measured work. *)
module Int_map = Map.Make (Int)

let reference () =
  let t0 = now_s () in
  let m = ref Int_map.empty in
  for i = 0 to 199_999 do
    m := Int_map.add ((i * 7919) land 0xfffff) i !m
  done;
  let hits = ref 0 in
  for i = 0 to 199_999 do
    if Int_map.mem ((i * 104_729) land 0xfffff) !m then incr hits
  done;
  ignore (Sys.opaque_identity !hits);
  now_s () -. t0

(* A scaled time is what the measured time would have been had the
   reference job taken this long (about its time on an unloaded 2-core
   Xeon VM). *)
let reference_nominal = 0.25

(* Time the reference twice, after the measured work, on a heap just
   collected so the simulator's garbage does not weigh on it. *)
let emit_reference () =
  Gc.full_major ();
  let r1 = reference () in
  let r2 = reference () in
  emit "reference_s" ((r1 +. r2) /. 2.0)

let heap_mb (st : Gc.stat) =
  float_of_int (st.top_heap_words * (Sys.word_size / 8)) /. 1e6

let per_call_ns (r : Ledger.row) =
  if r.calls = 0 then 0.0 else r.total_s *. 1e9 /. float_of_int r.calls

let work_dir = "_e2e_work"

type ckpt = { save_ms : float; load_ms : float; mb : float }

(* Save the finished cell with Sim.Snapshot, load it back, rehydrate
   it and check that it measures the same; best of five rounds. *)
let snapshot_roundtrip (built : D.built) ~expected =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let path =
    Filename.concat work_dir (Printf.sprintf "cell-%d.snap" (Unix.getpid ()))
  in
  let sim = T.sim built.topo in
  let bytes = ref 0 and save = ref infinity and load = ref infinity in
  for _ = 1 to 5 do
    let t0 = now_s () in
    bytes := Sim.Snapshot.save sim ~world:built ~path;
    let t1 = now_s () in
    let _sim, (b : D.built) = Sim.Snapshot.load ~path in
    let t2 = now_s () in
    List.iter
      (fun l -> Experiments.Schemes.rehydrate_disc (Link.disc l))
      (T.links b.topo);
    List.iter
      (fun f -> Experiments.Schemes.rehydrate_cc (Flow.cc f))
      (b.forward_flows @ b.reverse);
    if not (String.equal (W.render_cell (D.measure b)) expected) then
      fail "restored snapshot measures a different result";
    save := Float.min !save (t1 -. t0);
    load := Float.min !load (t2 -. t1)
  done;
  Sys.remove path;
  (try Sys.rmdir work_dir with Sys_error _ -> ());
  {
    save_ms = !save *. 1e3;
    load_ms = !load *. 1e3;
    mb = float_of_int !bytes /. 1e6;
  }

let claims_or_fail (w : W.t) config r =
  match W.check_claims config r with
  | Ok () -> ()
  | Error e -> fail "%s: %s" w.name e

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* One measured cell: build (set-up), warm up, reset, measure. *)
type cell = {
  setup : float;
  wall : float;
  heap : float;
      (** peak heap in MB at the end of the measured run, before the
          snapshot round trip loads a second world *)
  events : float;
  minor : float;
  promoted : float;
  majors : float;
  ckpt : ckpt option;
  text : string;
}

let run_cell (w : W.t) (config : D.config) =
  let t0 = now_s () in
  let built = D.build config in
  let setup = now_s () -. t0 in
  let sim = T.sim built.topo in
  let st0 = Gc.quick_stat () in
  let t1 = now_s () in
  Sim.run ~until:(Units.Time.s config.warmup) sim;
  D.reset built;
  Sim.run ~until:(Units.Time.s config.duration) sim;
  let wall = now_s () -. t1 in
  let st1 = Gc.quick_stat () in
  let r = D.measure built in
  claims_or_fail w config r;
  let body = W.render_cell r in
  {
    setup;
    wall;
    heap = heap_mb st1;
    events = float_of_int (Sim.events_executed sim);
    minor = st1.minor_words -. st0.minor_words;
    promoted = st1.promoted_words -. st0.promoted_words;
    majors = float_of_int (st1.major_collections - st0.major_collections);
    (* Web sessions schedule closure events, which snapshots refuse. *)
    ckpt =
      (if config.web_sessions = 0 then
         Some (snapshot_roundtrip built ~expected:body)
       else None);
    text = W.render_seed config.seed body;
  }

let child_setup (w : W.t) seed =
  match w.kind with
  | W.Cells cfgs ->
      let setup config =
        let t0 = now_s () in
        let built = D.build config in
        let dt = now_s () -. t0 in
        ignore (Sys.opaque_identity built);
        dt
      in
      emit "setup_s" (sum setup (cfgs seed))
  | W.Tables ->
      let t0 = now_s () in
      let pool = Parallel.create ~jobs:W.tables_jobs in
      Parallel.shutdown pool;
      emit "setup_s" (now_s () -. t0)

let child_run (w : W.t) seed =
  match w.kind with
  | W.Cells cfgs ->
      let configs = cfgs seed in
      let cells = List.map (run_cell w) configs in
      emit_reference ();
      let wall = sum (fun c -> c.wall) cells in
      let events = sum (fun c -> c.events) cells in
      emit "setup_s" (sum (fun c -> c.setup) cells);
      emit "wall_s" wall;
      emit "peak_heap_mb"
        (List.fold_left (fun a c -> Float.max a c.heap) 0.0 cells);
      emit "engine.events" events;
      emit "engine.events_per_s" (events /. wall);
      emit "engine.sim_speed"
        (sum (fun (c : D.config) -> c.duration) configs /. wall);
      emit "gc.minor_words_per_event" (sum (fun c -> c.minor) cells /. events);
      emit "gc.promoted_words_per_event"
        (sum (fun c -> c.promoted) cells /. events);
      emit "gc.major_collections" (sum (fun c -> c.majors) cells);
      let ckpts = List.filter_map (fun c -> c.ckpt) cells in
      if ckpts <> [] then begin
        emit "ckpt.save_ms" (sum (fun k -> k.save_ms) ckpts);
        emit "ckpt.load_ms" (sum (fun k -> k.load_ms) ckpts);
        emit "ckpt.mb" (sum (fun k -> k.mb) ckpts)
      end;
      emit_render (String.concat "" (List.map (fun c -> c.text) cells))
  | W.Tables ->
      let t0 = now_s () in
      let results =
        Registry.run_many
          ~ctx:(Runner.ctx ~jobs:W.tables_jobs ())
          Experiments.Scale.Quick Registry.all
      in
      let wall = now_s () -. t0 in
      emit "wall_s" wall;
      emit "peak_heap_mb" (heap_mb (Gc.quick_stat ()));
      emit_reference ();
      emit_render (W.render_tables results)

let child_trace (w : W.t) seed =
  match w.kind with
  | W.Cells cfgs ->
      (* The panel's cells one after the other; every figure is summed
         over the cells, and per-call times are total over calls. *)
      let traced =
        List.map
          (fun (config : D.config) ->
            let rep = Replica.build config in
            let r, window = Replica.run rep in
            claims_or_fail w config r;
            (rep, window, W.render_seed config.seed (W.render_cell r)))
          (cfgs seed)
      in
      let reps = List.map (fun (rep, _, _) -> rep) traced in
      let total f = sum (fun rep -> float_of_int (f rep)) reps in
      let row name =
        List.fold_left
          (fun (a : Ledger.row) (rep : Replica.t) ->
            let r =
              List.find
                (fun (r : Ledger.row) -> r.name = name)
                (Ledger.rows rep.ledger)
            in
            {
              a with
              calls = a.calls + r.calls;
              total_s = a.total_s +. r.total_s;
              self_s = a.self_s +. r.self_s;
            })
          { Ledger.name; calls = 0; total_s = 0.0; self_s = 0.0 }
          reps
      in
      let flows f (rep : Replica.t) =
        List.fold_left (fun a x -> a + f x) 0
          (rep.built.forward_flows @ rep.built.reverse)
      in
      let window f = sum (fun (_, win, _) -> float_of_int (f win)) traced in
      let early = row "cc.early" in
      emit "traced_wall_s" (row "engine.run").total_s;
      emit "engine.self_s" (row "engine.run").self_s;
      emit "engine.events_per_pkt"
        (window (fun (win : Replica.window) -> win.events)
        /. window (fun win -> win.arrivals));
      emit "engine.audit_s" (row "engine.audit").total_s;
      emit "net.bneck.enqueue.ns" (per_call_ns (row "net.bneck.enqueue"));
      emit "net.bneck.dequeue.ns" (per_call_ns (row "net.bneck.dequeue"));
      emit "net.access.enqueue.ns" (per_call_ns (row "net.access.enqueue"));
      emit "net.forward.self_s" (row "net.forward").self_s;
      let bneck f = total (fun rep -> f rep.built.bottleneck) in
      emit "net.bneck.drops" (bneck Link.drops);
      emit "net.bneck.marks" (bneck Link.marks);
      emit "tcp.deliver.calls" (float_of_int (row "tcp.deliver").calls);
      emit "tcp.deliver.self_s" (row "tcp.deliver").self_s;
      emit "tcp.flows" (total (fun rep -> rep.counters.flows));
      emit "tcp.retransmissions" (total (flows Flow.retransmissions));
      emit "tcp.timeouts" (total (flows Flow.timeouts));
      emit "cc.on_ack.ns" (per_call_ns (row "cc.on_ack"));
      emit "cc.early.ns" (per_call_ns early);
      emit "cc.early.self_s" early.self_s;
      let reduce = total (fun rep -> rep.counters.early_reduce) in
      emit "cc.early_response_ratio"
        (if early.calls = 0 then 0.0 else reduce /. float_of_int early.calls);
      emit_render (String.concat "" (List.map (fun (_, _, t) -> t) traced))
  | W.Tables ->
      (* Each experiment alone, sequentially: its own wall time. *)
      let total = ref 0.0 in
      let results =
        List.concat_map
          (fun (e : Registry.experiment) ->
            let t0 = now_s () in
            let r =
              Registry.run_many ~ctx:(Runner.ctx ~jobs:1 ())
                Experiments.Scale.Quick [ e ]
            in
            let dt = now_s () -. t0 in
            total := !total +. dt;
            emit ("tables." ^ e.id ^ ".s") dt;
            r)
          Registry.all
      in
      emit "traced_wall_s" !total;
      emit_render (W.render_tables results)

(* --- parent side ------------------------------------------------------ *)

type child = { ok : bool; values : (string * float) list; render : string }

let parse_child out =
  let rec split values = function
    | "---" :: rest -> Some (List.rev values, String.concat "\n" rest)
    | [] | [ "" ] -> Some (List.rev values, "")
    | line :: rest -> (
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some f -> split ((name, f) :: values) rest
            | None -> None)
        | _ -> None)
  in
  split [] (String.split_on_char '\n' out)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let spawn (w : W.t) ~seed mode =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--child"; mode; "--workload"; w.name; "--seed"; string_of_int seed;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match (waitpid_noeintr pid, parse_child out) with
  | Unix.WEXITED 0, Some (values, render) -> { ok = true; values; render }
  | status, _ ->
      let why =
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s
      in
      Printf.eprintf "e2e: %s child of %s failed (%s)\n%!" mode w.name why;
      { ok = false; values = []; render = "" }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, median, q3) as Python's statistics.quantiles(xs, n=4) computes
   them (the default "exclusive" method); needs two values or more. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden (w : W.t) ~seed =
  if (not w.seeded) || seed = W.golden_seed then begin
    let path = Filename.concat "bench_e2e/expected" (w.name ^ ".txt") in
    try Some (read_file path)
    with Sys_error e ->
      prerr_endline ("e2e: no golden rendering: " ^ e);
      Some ""
  end
  else None

type outcome = {
  attempted : int;
  failed : int;
  metrics : (metric * float) list;
}

(* One benchmark run of [w]. Every child counts as one attempted
   operation; it fails when the child fails, or when its rendering
   differs from the golden one (at the golden seed) or from the first
   rendering of this run (repeats and the traced twin must agree byte
   for byte). *)
let run_workload (w : W.t) ~seed ~seconds ~trace =
  let attempted = ref 0 and failed = ref 0 in
  let expected = golden w ~seed in
  let first = ref expected in
  let child mode =
    incr attempted;
    let c = spawn w ~seed mode in
    if c.ok && (mode = "run" || mode = "trace") then begin
      match !first with
      | None -> first := Some c.render
      | Some r when String.equal r c.render -> ()
      | Some _ ->
          Printf.eprintf "e2e: %s %s child: result differs from the %s\n%!"
            w.name mode
            (if Option.is_some expected then "golden rendering"
             else "first repeat");
          incr failed
    end;
    if not c.ok then incr failed;
    c
  in
  let values cs name =
    List.filter_map (fun c -> List.assoc_opt name c.values) cs
  in
  let metrics =
    if not trace then begin
      (* Set-up several times, each in a fresh process, and report the
         median with the builds of the measured repeats. The set-ups
         count against [seconds]; another repeat starts only when the
         longest one so far, with a tenth to spare, still fits. *)
      let t0 = now_s () in
      let setups = List.init 15 (fun _ -> child "setup") in
      let rec repeats acc longest =
        let t = now_s () in
        let acc = child "run" :: acc in
        let longest = Float.max longest (now_s () -. t) in
        if now_s () -. t0 +. (1.1 *. longest) <= seconds then
          repeats acc longest
        else acc
      in
      let runs = repeats [] 0.0 in
      (* Wall time is the median repeat, each scaled by the reference
         time taken in its own process; set-up time is scaled by the
         run's median reference time. *)
      let scaled c =
        let get name = List.assoc_opt name c.values in
        match (get "wall_s", get "reference_s") with
        | Some wall, Some r -> Some (wall *. reference_nominal /. r)
        | _ -> None
      in
      let speed = median (values runs "reference_s") in
      let median_of xs = if xs = [] then None else Some (median xs) in
      List.filter_map
        (fun metric ->
          Option.map
            (fun v -> (metric, v))
            (match metric.name with
            | "wall_s" -> median_of (List.filter_map scaled runs)
            | "setup_s" ->
                Option.map
                  (fun v -> v *. reference_nominal /. speed)
                  (median_of (values (setups @ runs) "setup_s"))
            | name -> median_of (values runs name)))
        end_to_end
    end
    else begin
      let base = child "run" and traced = child "trace" in
      let all = base.values @ traced.values in
      let get name = Option.value (List.assoc_opt name all) ~default:0.0 in
      let wall = get "wall_s" in
      let tables =
        List.fold_left
          (fun a id -> a +. get ("tables." ^ id ^ ".s"))
          0.0 (Registry.ids ())
      in
      let derived =
        [
          ("trace.overhead", get "traced_wall_s" /. wall);
          ( "parallel.efficiency",
            tables /. (float_of_int W.tables_jobs *. wall) );
        ]
      in
      if base.ok && traced.ok then
        List.map
          (fun metric ->
            match List.assoc_opt metric.name derived with
            | Some v -> (metric, v)
            | None -> (metric, get metric.name))
          per_layer
      else []
    end
  in
  { attempted = !attempted; failed = !failed; metrics }

let result_fields o =
  let metrics =
    List.map
      (fun (metric, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Json.quote metric.name) (Json.num v) (Json.quote metric.unit_))
      o.metrics
  in
  Printf.sprintf
    "\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " metrics)

(* --- compare ---------------------------------------------------------- *)

(* An absolute floor under a metric's relative bound, in the metric's
   unit: a set-up of a few milliseconds may move by 5 ms. BENCHMARK.json
   holds only the relative bound. *)
let floor_of = function "setup_s" -> 0.005 | _ -> 0.0

(* B against A for one workload and metric, runs paired by seed order.
   The bound is the larger of the relative bound and the floor over A's
   median. A spread (quartile distance over median) wider than the
   bound leaves the metric unresolved unless every run of B beats every
   run of A. B is better only when its median beats A's by more than
   A's own spread and it wins at least nine pairs in ten; worse when its
   median is worse by more than the bound. *)
let verdict ~bound ~floor ~lower xs ys =
  let ((qa1, ma, qa3) as qa) = quartiles xs in
  let ((qb1, mb, qb3) as qb) = quartiles ys in
  let bound = Float.max bound (floor /. ma) in
  let spread_a = (qa3 -. qa1) /. ma and spread_b = (qb3 -. qb1) /. mb in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. ma in
  let beats y x = if lower then y < x else y > x in
  let n = min (List.length xs) (List.length ys) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first xs) (first ys) in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  let v =
    if spread_a > bound || spread_b > bound then
      if List.for_all (fun y -> List.for_all (beats y) xs) ys then "better"
      else "unresolved"
    else if worse_by > bound then "worse"
    else if -.worse_by > spread_a && 10 * wins >= 9 * n then "better"
    else "within bound"
  in
  (v, qa, qb)

let compare_sets a_path b_path =
  let bench = Json.parse (read_file "BENCHMARK.json") in
  let bounds =
    List.map
      (fun e ->
        ( Json.to_str (Json.member "name" e),
          ( Json.to_num (Json.member "bound" e),
            Json.to_str (Json.member "better" e) = "lower" ) ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let load path =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.parse
    |> List.filter (fun j -> Json.member "trace" j = Json.Num 0.0)
    |> List.sort (fun x y ->
           Float.compare
             (Json.to_num (Json.member "seed" x))
             (Json.to_num (Json.member "seed" y)))
  in
  let a = load a_path and b = load b_path in
  let values set workload name =
    List.filter_map
      (fun j ->
        if Json.member "workload" j = Json.Str workload then
          match Json.(member "metrics" j |> member name |> member "value") with
          | Json.Num v -> Some v
          | _ -> None
        else None)
      set
  in
  let bad = ref 0 and apart = ref [] in
  Printf.printf "%-14s %-13s %24s %24s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (name, (bound, lower)) ->
          let xs = values a w.name name and ys = values b w.name name in
          if List.length xs >= 2 && List.length ys >= 2 then begin
            let floor = floor_of name in
            let v, ((_, ma, _) as qa), ((_, mb, _) as qb) =
              verdict ~bound ~floor ~lower xs ys
            in
            if v = "worse" || v = "unresolved" then incr bad;
            if Float.abs (mb -. ma) > Float.max (0.1 *. ma) floor then
              apart := Printf.sprintf "%s on %s" name w.name :: !apart;
            let cell (q1, med, q3) =
              Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
            in
            Printf.printf "%-14s %-13s %24s %24s %+7.2f%%  %s\n" w.name name
              (cell qa) (cell qb) ((mb -. ma) /. ma *. 100.0) v
          end)
        bounds)
    W.all;
  (* Between two baseline sets of one commit, such a metric is demoted
     to a per-layer metric. *)
  if !apart <> [] then
    Printf.printf "medians more than a tenth apart: %s\n"
      (String.concat ", " (List.rev !apart));
  exit (if !bad = 0 then 0 else 1)

(* --- command line ----------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 30.0 in
  let trace = ref 0 and json = ref None and child = ref None in
  let compare_a = ref "" and compare_b = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME  one workload (default: all)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  measuring time per run (default 30)" );
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run: per-layer metrics");
      ( "--json",
        Arg.String (fun s -> json := Some s),
        "FILE  append each result line to FILE" );
      ( "--compare",
        Arg.Tuple [ Arg.Set_string compare_a; Arg.Set_string compare_b ],
        "A B  compare two --json result files" );
      ( "--child",
        Arg.String (fun s -> child := Some s),
        "MODE  internal: setup|run|trace" );
    ]
  in
  let usage =
    "e2e.exe [--workload W] --seed N --seconds S --trace 0|1 [--json FILE]\n\
     e2e.exe --compare A.json B.json"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !compare_a <> "" then compare_sets !compare_a !compare_b
  else
      let workloads =
        match !workload with
        | None -> W.all
        | Some name -> (
            match W.find name with
            | Some w -> [ w ]
            | None ->
                Printf.eprintf "e2e: unknown workload %S\n" name;
                exit 2)
      in
      (match !child with
      | Some mode ->
          let w = List.hd workloads in
          (match mode with
          | "setup" -> child_setup w !seed
          | "run" -> child_run w !seed
          | "trace" -> child_trace w !seed
          | _ -> fail "unknown child mode %S" mode);
          exit 0
      | None -> ());
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "e2e: --trace takes 0 or 1";
        exit 2
      end;
      List.iter
        (fun (w : W.t) ->
          let o =
            run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          in
          Option.iter
            (fun path ->
              Out_channel.with_open_gen
                [ Open_append; Open_creat; Open_text ]
                0o644 path
                (fun oc ->
                  Printf.fprintf oc
                    "{\"workload\": %s, \"seed\": %d, \"trace\": %d, %s}\n"
                    (Json.quote w.name) !seed !trace (result_fields o)))
            !json;
          Printf.printf "{%s}\n%!" (result_fields o))
        workloads
