(* Scheduling helpers shared by the test suites. *)

module Sim = Sim_engine.Sim
module Event = Sim_engine.Event

(* The one event kind that carries a closure: tests schedule ad hoc
   actions as [Sim.at sim time (thunk f)]. Library code registers a kind
   per event so that its pending events stay plain data; a test hook
   needs no such care. *)
let thunk = Event.define ~name:"test.thunk" (fun f -> f ())

type tick = { sim : Sim.t; period : Units.Time.t; f : unit -> unit }

let tick_ev =
  Event.define_rec ~name:"test.tick" (fun self tk ->
      tk.f ();
      if not (Sim.stopped tk.sim) then Sim.after tk.sim tk.period (self tk))

(* [ticker sim ~start period f] runs [f] at [start] and then every
   [period] until the simulation stops: the self-rescheduling pattern
   of the library's periodic kinds (Audit, Dumbbell's checkpoint tick). *)
let ticker sim ~start period f = Sim.at sim start (tick_ev { sim; period; f })
