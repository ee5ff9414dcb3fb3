(* In-memory span ledger for the traced run.

   Spans are aggregated per name as count, total and self time (total
   minus the time covered by child spans) with an explicit span stack,
   so entering and leaving a span allocates nothing and reads the clock
   once each. Nothing is written until the run ends. *)

(* The monotonic-clock stub that bechamel ships, bound directly: the
   unboxed int64 result converts to an immediate int without the
   allocation a call through [Monotonic_clock.now] would cost. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let max_depth = 64

type t = {
  mutable names : string array;
  mutable count : int array;
  mutable total : int array;  (** ns *)
  mutable self : int array;  (** ns *)
  stack_id : int array;
  stack_start : int array;
  stack_child : int array;  (** ns covered by children of each frame *)
  mutable depth : int;
}

let create () =
  {
    names = [||];
    count = [||];
    total = [||];
    self = [||];
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = 0;
  }

(* Span ids are dense indices, registered before the run starts. *)
let span t name =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      t.count <- Array.append t.count [| 0 |];
      t.total <- Array.append t.total [| 0 |];
      t.self <- Array.append t.self [| 0 |];
      i
    end
    else if String.equal t.names.(i) name then i
    else find (i + 1)
  in
  find 0

let enter t id =
  let d = t.depth in
  if d = max_depth then failwith "Ledger.enter: span stack overflow";
  t.stack_id.(d) <- id;
  t.stack_child.(d) <- 0;
  t.depth <- d + 1;
  t.stack_start.(d) <- now_ns ()

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.stack_id.(d) in
  let dur = stop - t.stack_start.(d) in
  t.count.(id) <- t.count.(id) + 1;
  t.total.(id) <- t.total.(id) + dur;
  t.self.(id) <- t.self.(id) + dur - t.stack_child.(d);
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur

type row = { name : string; calls : int; total_s : float; self_s : float }

let rows t =
  if t.depth <> 0 then failwith "Ledger.rows: spans still open";
  Array.to_list
    (Array.mapi
       (fun i name ->
         {
           name;
           calls = t.count.(i);
           total_s = float_of_int t.total.(i) *. 1e-9;
           self_s = float_of_int t.self.(i) *. 1e-9;
         })
       t.names)
