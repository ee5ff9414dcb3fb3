module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module Packet = Netsim.Packet
module Node = Netsim.Node

(* CBR shares the per-simulation id space with TCP flows via a distinct
   negative range to avoid colliding with Flow's ids. *)
let fresh_cbr_id sim = -1 - Sim.fresh_id sim

type t = {
  sim : Sim.t;
  src : Node.t;
  dst : Node.t;
  id : int;
  arena : Packet.arena;
  interval : float;
  stop : float;
  mutable sent : int;
  mutable received : int;
  mutable halted : bool;
}

(* Self-rescheduling defunctionalized emitter (checkpoint-safe, unlike
   the recursive closure it replaces): the payload is the source itself. *)
let emit_ev =
  Event.define_rec ~name:"cbr.emit" (fun self t ->
      if (not t.halted) && Sim.now t.sim < t.stop then begin
        let pkt =
          Packet.data t.arena ~flow:t.id ~src:(Node.id t.src)
            ~dst:(Node.id t.dst) ~seq:t.sent ~ecn:false ~now:(Sim.now t.sim) ()
        in
        t.sent <- t.sent + 1;
        Node.receive t.src pkt;
        Sim.after t.sim (Units.Time.s t.interval) (self t)
      end)

let start topo ~src ~dst ~rate ?start ?stop () =
  if Units.Rate.to_bps rate <= 0.0 then invalid_arg "Cbr.start: rate must be positive";
  let sim = Netsim.Topology.sim topo in
  let id = fresh_cbr_id sim in
  let t =
    {
      sim;
      src;
      dst;
      id;
      arena = Netsim.Topology.arena topo;
      interval = float_of_int (8 * Packet.data_size) /. Units.Rate.to_bps rate;
      stop = (match stop with Some s -> Units.Time.to_s s | None -> infinity);
      sent = 0;
      received = 0;
      halted = false;
    }
  in
  Node.attach_agent dst ~flow:id (fun _pkt -> t.received <- t.received + 1);
  let start_time =
    match start with Some s -> s | None -> Units.Time.s (Sim.now sim)
  in
  Sim.at sim start_time (emit_ev t);
  t

let sent t = t.sent
let received t = t.received

let halt t =
  t.halted <- true;
  Node.detach_agent t.dst ~flow:t.id
