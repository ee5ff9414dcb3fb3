module Prob = Units.Prob

type params = {
  wq : float;
  min_th : float;
  max_th : float;
  max_p : Prob.t;
  gentle : bool;
  adaptive : bool;
  ecn : bool;
}

let auto_params ?(target_delay = Units.Time.s 0.005) ?(gentle = true)
    ?(adaptive = true) ?(ecn = true) ~capacity_pps ~limit_pkts () =
  let target_delay = Units.Time.to_s target_delay in
  let min_th = Float.max 5.0 (capacity_pps *. target_delay /. 2.0) in
  (* Keep the control band inside the physical buffer. *)
  let min_th = Float.min min_th (float_of_int limit_pkts /. 4.0) in
  let min_th = Float.max 1.0 min_th in
  {
    wq = 1.0 -. exp (-1.0 /. Float.max 1.0 capacity_pps);
    min_th;
    max_th = 3.0 *. min_th;
    max_p = Prob.v 0.1;
    gentle;
    adaptive;
    ecn;
  }

(* All-float record for the EWMA state: mixed with the pointer and int
   fields of [state] every computed store ([f.avg <- ...], once per
   arrival) would box its float (pertalloc rule A2). *)
type floats = {
  mutable avg : float;
  mutable idle_start : float;  (** nan when the queue is busy *)
  mutable next_adapt : float;
}

type state = { mutable p : params; f : floats; mutable count : int }
type t = { disc : Queue_disc.t; st : state }

let adapt_interval = 0.5

let adapt st now =
  if st.p.adaptive && now >= st.f.next_adapt then begin
    st.f.next_adapt <- now +. adapt_interval;
    let target_lo = st.p.min_th +. (0.4 *. (st.p.max_th -. st.p.min_th)) in
    let target_hi = st.p.min_th +. (0.6 *. (st.p.max_th -. st.p.min_th)) in
    let mp = Prob.to_float st.p.max_p in
    (* A1: the [{ st.p with max_p }] copy runs at most once per
       [adapt_interval] (0.5 s of simulated time), not per packet. *)
    if st.f.avg > target_hi && mp < 0.5 then
      let step = mp /. 4.0 in
      let step = if step > 0.01 then 0.01 else step (* [Float.min], A4 *) in
      st.p <-
        ({ st.p with max_p = Prob.v (mp +. step) } [@lint.allow "A1"])
    else if st.f.avg < target_lo && mp > 0.01 then
      st.p <- ({ st.p with max_p = Prob.v (mp *. 0.9) } [@lint.allow "A1"])
  end

let create ~rng ~params ~capacity_pps ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Red.create: limit must be positive";
  let fifo = Queue_disc.Fifo.create () in
  (* The queue starts empty: idle since t = 0. [idle_start] is NaN exactly
     while packets are buffered, so every push clears it and the
     drain-to-empty dequeue restores it. *)
  let st =
    {
      p = params;
      f = { avg = 0.0; idle_start = 0.0; next_adapt = 0.0 };
      count = -1;
    }
  in
  let push pkt ~size =
    Queue_disc.Fifo.push fifo pkt ~size;
    st.f.idle_start <- Float.nan
  in
  let tx_time = 1.0 /. Float.max 1.0 capacity_pps in
  let update_avg now =
    let f = st.f in
    let pkts = Queue_disc.Fifo.pkts fifo in
    if pkts = 0 && not (Float.is_nan f.idle_start) then begin
      (* Decay the average as if m small packets were serviced while idle.
         Keep the idle clock running: if this arrival is rejected the queue
         stays empty, and later arrivals must keep decaying by elapsed time
         (ns-2's q_time), or a pinned-high average force-drops forever. *)
      let m = (now -. f.idle_start) /. tx_time in
      f.avg <- f.avg *. ((1.0 -. st.p.wq) ** m);
      f.idle_start <- now
    end
    else
      f.avg <- ((1.0 -. st.p.wq) *. f.avg) +. (st.p.wq *. float_of_int pkts)
  in
  let mark_or_drop pkt ~size ~ecn =
    if st.p.ecn && ecn then begin
      push pkt ~size;
      Queue_disc.Accept_marked
    end
    else Queue_disc.Reject
  in
  (* Hoisted out of [enqueue] to create-scope: as a per-call [let] it
     allocated a closure on every arrival in the RED control band
     (pertalloc rule A1). The Rng draw order is unchanged. *)
  let region_verdict pkt ~size ~ecn pb =
    st.count <- st.count + 1;
    let pa =
      let denom = 1.0 -. (float_of_int st.count *. pb) in
      if denom <= 0.0 then 1.0
      else
        let pa = pb /. denom in
        if pa > 1.0 then 1.0 else pa (* [Float.min 1.0 pa], rule A4 *)
    in
    if Sim_engine.Rng.bernoulli rng (Prob.v pa) then begin
      st.count <- 0;
      mark_or_drop pkt ~size ~ecn
    end
    else begin
      push pkt ~size;
      Queue_disc.Accept
    end
  in
  let[@alloc.zero] enqueue ~now ~size ~ecn pkt =
    update_avg now;
    adapt st now;
    if Queue_disc.Fifo.pkts fifo >= limit_pkts then begin
      st.count <- 0;
      Queue_disc.Reject
    end
    else begin
      let p = st.p in
      let avg = st.f.avg in
      if avg < p.min_th then begin
        st.count <- -1;
        push pkt ~size;
        Queue_disc.Accept
      end
      else if avg < p.max_th then
        region_verdict pkt ~size ~ecn
          (Prob.to_float p.max_p *. (avg -. p.min_th) /. (p.max_th -. p.min_th))
      else if p.gentle && avg < 2.0 *. p.max_th then
        let mp = Prob.to_float p.max_p in
        region_verdict pkt ~size ~ecn
          (mp +. ((1.0 -. mp) *. (avg -. p.max_th) /. p.max_th))
      else begin
        st.count <- 0;
        Queue_disc.Reject
      end
    end
  in
  let[@alloc.zero] dequeue ~now =
    let pkt = Queue_disc.Fifo.pop_exn fifo in
    if Queue_disc.Fifo.pkts fifo = 0 then st.f.idle_start <- now;
    pkt
  in
  let disc =
    {
      Queue_disc.name = "red";
      enqueue;
      dequeue;
      fifo;
      capacity_pkts = limit_pkts;
    }
  in
  { disc; st }

let disc t = t.disc
let avg_queue t = t.st.f.avg
let current_max_p t = t.st.p.max_p
