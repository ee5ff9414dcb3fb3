type params = {
  a : float;
  b : float;
  q_ref : float;
  sample_interval : Units.Time.t;
  ecn : bool;
}

(* The controller's mutable floats live in their own all-float record:
   mixed with [params] (a pointer field) the record would not use the
   flat-float representation, and every computed store such as
   [st.prob <- clamp01 ...] would box its float (pertalloc rule A2). *)
type floats = {
  mutable prob : float;
  mutable prev_q : float;
  mutable next_update : float;
}

type state = { p : params; f : floats }

(* Link the opaque Queue_disc.t back to PI internals for introspection
   (no global registry: that would be module-toplevel mutable state). *)
type Queue_disc.internals += Pi of state

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let create ~rng ~params ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Pi_queue.create: limit must be positive";
  let sample_interval = Units.Time.to_s params.sample_interval in
  if sample_interval <= 0.0 then
    invalid_arg "Pi_queue.create: sample_interval must be positive";
  let fifo = Queue_disc.Fifo.create () in
  let st = { p = params; f = { prob = 0.0; prev_q = 0.0; next_update = 0.0 } } in
  (* Catch the controller clock up to [now]; between arrivals the queue
     length is constant, so iterating the recurrence is exact. *)
  let update_prob now =
    let q = float_of_int (Queue_disc.Fifo.pkts fifo) in
    let f = st.f in
    while f.next_update <= now do
      f.prob <-
        clamp01
          (f.prob
          +. (st.p.a *. (q -. st.p.q_ref))
          -. (st.p.b *. (f.prev_q -. st.p.q_ref)));
      f.prev_q <- q;
      f.next_update <- f.next_update +. sample_interval
    done
  in
  let[@alloc.zero] enqueue ~now ~size ~ecn pkt =
    update_prob now;
    if Queue_disc.Fifo.pkts fifo >= limit_pkts then Queue_disc.Reject
    else if Sim_engine.Rng.bernoulli rng (Units.Prob.v st.f.prob) then
      if st.p.ecn && ecn then begin
        Queue_disc.Fifo.push fifo pkt ~size;
        Queue_disc.Accept_marked
      end
      else Queue_disc.Reject
    else begin
      Queue_disc.Fifo.push fifo pkt ~size;
      Queue_disc.Accept
    end
  in
  let[@alloc.zero] dequeue ~now:_ = Queue_disc.Fifo.pop_exn fifo in
  {
    Queue_disc.name = "pi";
    enqueue;
    dequeue;
    fifo;
    capacity_pkts = limit_pkts;
    internals = Pi st;
  }

let probability disc =
  match disc.Queue_disc.internals with
  | Pi st -> Units.Prob.v st.f.prob
  | _ -> invalid_arg "Pi_queue: not a PI discipline"

(* Restore-time repair (see {!Queue_disc.rehydrate}); no-op for other
   disciplines, so a dispatcher may call every scheme's [rehydrate]. *)
let rehydrate disc =
  if String.equal disc.Queue_disc.name "pi" then
    Queue_disc.rehydrate disc ~mk:(fun st -> Pi st)
