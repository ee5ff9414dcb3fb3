module Sim = Sim_engine.Sim

type t = {
  sim : Sim.t;
  arena : Packet.arena;
  mutable nodes : Node.t list;  (* newest first *)
  mutable links : (int * int * Link.t) list;  (* src id, dst id, link *)
  mutable node_count : int;
}

let create sim =
  {
    sim;
    arena = Packet.create_arena ();
    nodes = [];
    links = [];
    node_count = 0;
  }

let sim t = t.sim
let arena t = t.arena

let add_node t =
  let node = Node.create ~arena:t.arena ~id:t.node_count in
  t.node_count <- t.node_count + 1;
  t.nodes <- node :: t.nodes;
  node

let add_link ?jitter t ~src ~dst ~bandwidth ~delay ~disc =
  let name = Printf.sprintf "link-%d->%d" (Node.id src) (Node.id dst) in
  let link =
    Link.create ?jitter t.sim ~arena:t.arena ~name ~bandwidth ~delay ~disc
  in
  Link.set_deliver link (fun pkt -> Node.receive dst pkt);
  t.links <- (Node.id src, Node.id dst, link) :: t.links;
  link

let add_duplex t ~a ~b ~bandwidth ~delay ~disc_ab ~disc_ba =
  let ab = add_link t ~src:a ~dst:b ~bandwidth ~delay ~disc:disc_ab in
  let ba = add_link t ~src:b ~dst:a ~bandwidth ~delay ~disc:disc_ba in
  (ab, ba)

let compute_routes t =
  let n = t.node_count in
  (* adjacency: for each node, outgoing (dst, link) in creation order *)
  let adj = Array.make n [] in
  List.iter (fun (s, d, l) -> adj.(s) <- (d, l) :: adj.(s)) t.links;
  let nodes = Array.make n (Node.create ~arena:t.arena ~id:(-1)) in
  List.iter (fun node -> nodes.(Node.id node) <- node) t.nodes;
  (* BFS from each destination over reversed edges would be natural; with
     small topologies, BFS from each source is just as fine. *)
  let route_from s =
    let routes = Array.make n None in
    let dist = Array.make n max_int in
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.push s q;
    (* first_hop.(v) = link out of s on the shortest path to v *)
    let first_hop = Array.make n None in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (v, l) ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            first_hop.(v) <- (if u = s then Some l else first_hop.(u));
            Queue.push v q
          end)
        (List.rev adj.(u))
    done;
    for v = 0 to n - 1 do
      if v <> s then routes.(v) <- first_hop.(v)
    done;
    routes
  in
  Array.iter
    (fun node ->
      if Node.id node >= 0 then Node.set_routes node (route_from (Node.id node)))
    nodes

let node_count t = t.node_count
let links t = List.rev_map (fun (_, _, l) -> l) t.links

let inject _t node pkt = Node.receive node pkt
