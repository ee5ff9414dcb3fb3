(* Work-queue domain pool. See the .mli for the determinism contract.

   Shape: one shared FIFO of closures guarded by a mutex + condition;
   worker domains block on the condition and drain the queue; each
   submitted task fills a per-future slot and signals its own condition.
   Workers are spawned on demand, by the owning domain: each [submit]
   spawns one more while fewer than [jobs] exist, so [-j N] keeps N
   domains busy and a pool that never receives a task spawns none. The
   submitting domain only enqueues and then blocks in [await]; it never
   runs a task, so no task's heap outlives [shutdown] on a live domain
   (OCaml 5.1's [Gc.quick_stat] sums the heap maxima of live domains).

   Results are deterministic by construction: the queue is FIFO, every
   task runs exactly once, and [map] reads futures back in submission
   order — scheduling only changes *when* a task runs, never what it
   computes (tasks must not share mutable state, which pertlint D3/P1
   enforce for the simulation code this pool was built to run). *)

module Rng = Sim_engine.Rng

exception Task_error of { index : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Task_error { index; exn } ->
        Some
          (Printf.sprintf "Parallel.Task_error (task %d: %s)" index
             (Printexc.to_string exn))
    | _ -> None)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  pending : (unit -> unit) Queue.t;
  mutable accepting : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

type 'a future = {
  f_mutex : Mutex.t;
  f_done : Condition.t;
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.pending && t.accepting do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.pending then Mutex.unlock t.mutex (* shut down *)
  else begin
    let job = Queue.pop t.pending in
    Mutex.unlock t.mutex;
    job ();
    worker_loop t
  end

let create ~jobs =
  {
    mutex = Mutex.create ();
    work_available = Condition.create ();
    pending = Queue.create ();
    accepting = true;
    workers = [];
    jobs = max 1 jobs;
  }

let run_task f =
  match f () with
  | v -> Ok v
  | exception exn -> Error (exn, Printexc.get_raw_backtrace ())

let submit t f =
  if t.jobs = 1 then
    (* Sequential fallback: run inline, on the calling domain, right now —
       submission order is execution order, and no domain ever exists. *)
    {
      f_mutex = Mutex.create ();
      f_done = Condition.create ();
      result = Some (run_task f);
    }
  else begin
    let fut =
      { f_mutex = Mutex.create (); f_done = Condition.create (); result = None }
    in
    let job () =
      let result = run_task f in
      Mutex.lock fut.f_mutex;
      fut.result <- Some result;
      Condition.broadcast fut.f_done;
      Mutex.unlock fut.f_mutex
    in
    Mutex.lock t.mutex;
    if not t.accepting then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.submit: pool is shut down"
    end;
    Queue.push job t.pending;
    Condition.signal t.work_available;
    Mutex.unlock t.mutex;
    (* Spawn outside the lock, so a worker woken above can take the task
       while the new domain starts. [workers] is only ever touched here
       and in [shutdown], both on the owning domain. *)
    if List.length t.workers < t.jobs then
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers;
    fut
  end

let await fut =
  Mutex.lock fut.f_mutex;
  let rec wait () =
    match fut.result with
    | Some r ->
        Mutex.unlock fut.f_mutex;
        r
    | None ->
        Condition.wait fut.f_done fut.f_mutex;
        wait ()
  in
  wait ()

let shutdown t =
  Mutex.lock t.mutex;
  t.accepting <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Sequential counterpart of the pool path: same [Task_error] wrapping,
   same backtrace, so callers need a single handler for every [jobs]. *)
let run_wrapped index f x =
  match f x with
  | v -> v
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      Printexc.raise_with_backtrace (Task_error { index; exn }) bt

let map ~jobs f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ run_wrapped 0 f x ]
  | xs when jobs <= 1 -> List.mapi (fun index x -> run_wrapped index f x) xs
  | xs ->
      let pool = create ~jobs in
      Fun.protect
        ~finally:(fun () -> shutdown pool)
        (fun () ->
          let futures = List.map (fun x -> submit pool (fun () -> f x)) xs in
          List.mapi
            (fun index fut ->
              match await fut with
              | Ok v -> v
              | Error (exn, bt) ->
                  Printexc.raise_with_backtrace (Task_error { index; exn }) bt)
            futures)

module Guard = struct
  type 'a t = { g_mutex : Mutex.t; g_changed : Condition.t; g_value : 'a }

  let create v =
    { g_mutex = Mutex.create (); g_changed = Condition.create (); g_value = v }

  (* Every critical section may have changed the value, so each one wakes
     the domains parked in [wait] on its way out, raising or not. *)
  let with_ g f =
    Mutex.protect g.g_mutex (fun () ->
        Fun.protect
          ~finally:(fun () -> Condition.broadcast g.g_changed)
          (fun () -> f g.g_value))

  let wait g = Condition.wait g.g_changed g.g_mutex
end

(* ---- supervised tasks ---------------------------------------------------

   Retry/timeout supervision runs *inside* the submitted closure, on
   whichever domain executes it: domains cannot be interrupted, so a
   deadline is enforced cooperatively (the task arms its own engine
   budget from the [~deadline] it receives) and the pool's job is to
   classify the resulting exception and to pace retries.

   Backoff is deterministic by construction — drawn from an [Rng] seeded
   per task, never from the wall clock — and honoured by a bounded
   [Domain.cpu_relax] spin, so a retrying task yields its core without
   sleeping (pertlint R1) and the attempt trace is byte-identical at any
   [jobs]. *)

type attempt = { attempt : int; error : string; backoff : Units.Time.t }

(* NOTE: [Ok] deliberately mirrors the issue-tracker API and shadows
   [Stdlib.Ok] from here down — everything above this point uses the
   stdlib constructor. *)
type 'a outcome =
  | Ok of 'a
  | Failed of attempt list
  | Timed_out of { attempts : attempt list; reason : string }

(* ~1e8 relax/s on current hardware; cap a single pause at ~0.1 s of spin
   so a misconfigured backoff cannot wedge a worker. *)
let relax_per_second = 1e8
let max_relax = 10_000_000

let honour_backoff t pause =
  if t.jobs > 1 then begin
    let n =
      min max_relax
        (Units.Round.trunc (Units.Time.to_s pause *. relax_per_second))
    in
    for _ = 1 to n do
      Domain.cpu_relax ()
    done
  end

let submit_supervised t ?deadline ?(retries = 0)
    ?(backoff = Units.Time.ms 20.0) ?(is_timeout = fun _ -> false) ?checkpoint
    ~seed f =
  if retries < 0 then
    invalid_arg "Parallel.submit_supervised: retries must be >= 0";
  if Units.Time.to_s backoff < 0.0 then
    invalid_arg "Parallel.submit_supervised: backoff must be >= 0";
  let supervise () =
    let rng = Rng.create seed in
    let rec go k attempts =
      match f ~deadline with
      | v ->
          (* The task is done: its mid-run snapshot (if it kept one) has
             nothing left to resume and must not shadow a future rerun of
             the same cell. Retries deliberately leave it in place — a
             restarted attempt resumes from it instead of replaying the
             already-simulated prefix. *)
          (match checkpoint with
          | Some path when Sys.file_exists path -> (
              try Sys.remove path with Sys_error _ -> ())
          | _ -> ());
          Ok v
      | exception exn ->
          let error = Printexc.to_string exn in
          if is_timeout exn then
            Timed_out { attempts = List.rev attempts; reason = error }
          else begin
            let pause =
              if k >= retries then Units.Time.zero
              else
                (* base * 2^k, jittered by a deterministic draw in
                   [0.5, 1.5) — the usual decorrelation, minus the wall
                   clock. *)
                Units.Time.scale
                  (float_of_int (1 lsl min k 20) *. Rng.uniform rng 0.5 1.5)
                  backoff
            in
            let attempts =
              { attempt = k + 1; error; backoff = pause } :: attempts
            in
            if k >= retries then Failed (List.rev attempts)
            else begin
              honour_backoff t pause;
              go (k + 1) attempts
            end
          end
    in
    go 0 []
  in
  submit t supervise
