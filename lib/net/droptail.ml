let create ~limit_pkts =
  if limit_pkts <= 0 then invalid_arg "Droptail.create: limit must be positive";
  let fifo = Queue_disc.Fifo.create () in
  let[@alloc.zero] enqueue ~now:_ ~size ~ecn:_ pkt =
    if Queue_disc.Fifo.pkts fifo >= limit_pkts then Queue_disc.Reject
    else begin
      Queue_disc.Fifo.push fifo pkt ~size;
      Queue_disc.Accept
    end
  in
  let[@alloc.zero] dequeue ~now:_ = Queue_disc.Fifo.pop_exn fifo in
  {
    Queue_disc.name = "droptail";
    enqueue;
    dequeue;
    fifo;
    capacity_pkts = limit_pkts;
  }
