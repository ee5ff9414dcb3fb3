(* Agents are keyed by flow id, an int: a monomorphic table hashes and
   compares it in registers, where the polymorphic [Hashtbl] would call
   [caml_hash] and [compare_val] on every local delivery. Flow ids are
   distinct, so the identity is a perfect hash. *)
module Agents = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)

type t = {
  id : int;
  arena : Packet.arena;
  mutable routes : Link.t option array;
  agents : (Packet.t -> unit) Agents.t;
}

let create ~arena ~id = { id; arena; routes = [||]; agents = Agents.create 8 }
let id t = t.id
let set_routes t routes = t.routes <- routes

let route_to t dst =
  if dst < 0 || dst >= Array.length t.routes then None else t.routes.(dst)

let attach_agent t ~flow handler = Agents.replace t.agents flow handler
let detach_agent t ~flow = Agents.remove t.agents flow

(* Consumes the packet. Local delivery ends the packet's life: the agent
   handler reads what it needs (handlers copy fields out, they never
   retain the handle) and the slot goes back to the arena — packets to a
   flow with no agent (e.g. after [detach_agent]) are freed the same way.
   Forwarding transfers ownership to the next link. *)
let receive t pkt =
  if Packet.dst t.arena pkt = t.id then begin
    (match Agents.find t.agents (Packet.flow t.arena pkt) with
    | handler -> handler pkt
    | exception Not_found -> ());
    Packet.free t.arena pkt
  end
  else
    match route_to t (Packet.dst t.arena pkt) with
    | Some link -> Link.send link pkt
    | None ->
        invalid_arg
          (Printf.sprintf "Node %d: no route to %d" t.id
             (Packet.dst t.arena pkt))
