type params = {
  gamma : float;
  alpha : float;
  b_ref : float;
  phi : float;
  sample_interval : Units.Time.t;
  ecn : bool;
}

let default_params ~capacity_pps:_ =
  {
    gamma = 0.001;
    alpha = 0.1;
    b_ref = 20.0;
    phi = 1.001;
    sample_interval = Units.Time.s 0.010;
    ecn = true;
  }

(* All-float record for the mutable controller state: in the mixed
   [state] record a computed store like [st.price <- Float.max ...]
   would box its float on every update (pertalloc rule A2). *)
type floats = { mutable price : float; mutable next_update : float }

type state = {
  p : params;
  capacity_pps : float;
  f : floats;
  mutable arrivals_in_interval : int;
}

type t = { disc : Queue_disc.t; st : state }

let probability st = 1.0 -. (st.p.phi ** -.st.f.price)

let create ~rng ~params ~capacity_pps ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Rem.create: limit must be positive";
  if params.phi <= 1.0 then invalid_arg "Rem.create: phi must exceed 1";
  let sample_interval = Units.Time.to_s params.sample_interval in
  if sample_interval <= 0.0 then
    invalid_arg "Rem.create: sample_interval must be positive";
  let fifo = Queue_disc.Fifo.create () in
  let st =
    {
      p = params;
      capacity_pps;
      f = { price = 0.0; next_update = 0.0 };
      arrivals_in_interval = 0;
    }
  in
  let update_price now =
    let f = st.f in
    while f.next_update <= now do
      let backlog = float_of_int (Queue_disc.Fifo.pkts fifo) in
      let rate = float_of_int st.arrivals_in_interval /. sample_interval in
      let price =
        f.price
        +. (st.p.gamma
           *. ((st.p.alpha *. (backlog -. st.p.b_ref))
              +. ((rate -. st.capacity_pps) *. sample_interval)))
      in
      (* [Float.max 0.0 price] without its C call (pertalloc rule A4). *)
      f.price <- (if price > 0.0 then price else 0.0);
      st.arrivals_in_interval <- 0;
      f.next_update <- f.next_update +. sample_interval
    done
  in
  let[@alloc.zero] enqueue ~now ~size ~ecn pkt =
    update_price now;
    st.arrivals_in_interval <- st.arrivals_in_interval + 1;
    if Queue_disc.Fifo.pkts fifo >= limit_pkts then Queue_disc.Reject
    else if Sim_engine.Rng.bernoulli rng (Units.Prob.v (probability st)) then
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
  let disc =
    {
      Queue_disc.name = "rem";
      enqueue;
      dequeue;
      fifo;
      capacity_pkts = limit_pkts;
    }
  in
  { disc; st }

let disc t = t.disc
let price t = t.st.f.price
let mark_probability t = Units.Prob.v (probability t.st)
