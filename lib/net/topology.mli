(** Topology builder: creates nodes, wires links to receiving nodes, and
    computes static shortest-path (hop-count) routes with BFS.

    The topology owns the {!Packet.arena} all its packets live in; every
    node and link it creates shares it. *)

type t

val create : Sim_engine.Sim.t -> t
(** Every link the topology adds uses the default {!Link.Batched}
    transmitter. *)

val sim : t -> Sim_engine.Sim.t

val arena : t -> Packet.arena
(** The packet store shared by this topology's nodes and links; traffic
    sources allocate their packets here. *)

val add_node : t -> Node.t

val add_link :
  ?jitter:Units.Time.t -> t -> src:Node.t -> dst:Node.t ->
  bandwidth:Units.Rate.t -> delay:Units.Time.t -> disc:Queue_disc.t -> Link.t
(** Unidirectional [src -> dst] link; its delivery callback is wired to
    [dst]'s {!Node.receive}. [jitter] as in {!Link.create}. *)

val add_duplex :
  t -> a:Node.t -> b:Node.t -> bandwidth:Units.Rate.t -> delay:Units.Time.t ->
  disc_ab:Queue_disc.t -> disc_ba:Queue_disc.t -> Link.t * Link.t
(** Two unidirectional links with separate queue disciplines. *)

val compute_routes : t -> unit
(** (Re)compute every node's next-hop table. Call after the last
    [add_link] and before injecting traffic. Ties are broken by link
    creation order, deterministically. *)

val node_count : t -> int
val links : t -> Link.t list

val inject : t -> Node.t -> Packet.t -> unit
(** Hand a locally generated packet to a node for routing/delivery. *)
