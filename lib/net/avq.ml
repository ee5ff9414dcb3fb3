type params = {
  gamma : float;
  alpha : float;
  virtual_buffer : float;
  ecn : bool;
}

let default_params () =
  { gamma = 0.98; alpha = 0.15; virtual_buffer = 20.0; ecn = true }

(* All-float record for the mutable virtual-queue state: in a record
   mixed with [params] every computed store ([st.vq <- Float.max ...])
   would box its float per arrival (pertalloc rule A2). *)
type floats = {
  mutable vq : float;  (** virtual queue length, packets *)
  mutable c_tilde : float;  (** virtual capacity, pkts/s *)
  mutable last_arrival : float;
}

type state = { p : params; capacity_pps : float; f : floats }

(* Link the opaque Queue_disc.t back to AVQ internals for introspection
   (no global registry: that would be module-toplevel mutable state). *)
type Queue_disc.internals += Avq of state

let create ~params ~capacity_pps ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Avq.create: limit must be positive";
  if params.gamma <= 0.0 || params.gamma > 1.0 then
    invalid_arg "Avq.create: gamma in (0,1]";
  let fifo = Queue_disc.Fifo.create () in
  let st =
    {
      p = params;
      capacity_pps;
      f =
        {
          vq = 0.0;
          c_tilde = params.gamma *. capacity_pps;
          last_arrival = 0.0;
        };
    }
  in
  (* The clamps below are [Float.max 0.0 x] and [Float.min capacity x]
     without their C calls: on these NaN-free values the comparisons
     return the same floats, signed zeros included (pertalloc rule A4). *)
  let[@alloc.zero] enqueue ~now ~size ~ecn pkt =
    let f = st.f in
    let elapsed = now -. f.last_arrival in
    let dt = if elapsed > 0.0 then elapsed else 0.0 in
    f.last_arrival <- now;
    (* Drain the virtual queue at the virtual capacity. *)
    let vq = f.vq -. (f.c_tilde *. dt) in
    f.vq <- (if vq > 0.0 then vq else 0.0);
    (* Kunniyur-Srikant adaptation, integrated between arrivals: the
       (gamma C) term over dt, minus one packet for this arrival. *)
    let c =
      f.c_tilde
      +. (st.p.alpha *. ((st.p.gamma *. st.capacity_pps *. dt) -. 1.0))
    in
    let c = if c > 0.0 then c else 0.0 in
    f.c_tilde <- (if c > st.capacity_pps then st.capacity_pps else c);
    if Queue_disc.Fifo.pkts fifo >= limit_pkts then Queue_disc.Reject
    else if f.vq +. 1.0 > st.p.virtual_buffer then
      if st.p.ecn && ecn then begin
        Queue_disc.Fifo.push fifo pkt ~size;
        Queue_disc.Accept_marked
      end
      else Queue_disc.Reject
    else begin
      f.vq <- f.vq +. 1.0;
      Queue_disc.Fifo.push fifo pkt ~size;
      Queue_disc.Accept
    end
  in
  let[@alloc.zero] dequeue ~now:_ = Queue_disc.Fifo.pop_exn fifo in
  {
    Queue_disc.name = "avq";
    enqueue;
    dequeue;
    fifo;
    capacity_pkts = limit_pkts;
    internals = Avq st;
  }

let virtual_capacity disc =
  match disc.Queue_disc.internals with
  | Avq st -> st.f.c_tilde
  | _ -> invalid_arg "Avq: not an AVQ discipline"

(* Restore-time repair (see {!Queue_disc.rehydrate}); no-op for other
   disciplines, so a dispatcher may call every scheme's [rehydrate]. *)
let rehydrate disc =
  if String.equal disc.Queue_disc.name "avq" then
    Queue_disc.rehydrate disc ~mk:(fun st -> Avq st)
