type verdict = Accept | Accept_marked | Reject

exception Empty

(* Power-of-two ring buffer over packet handles. Handles are immediate
   ints ([Packet.t = private int]), so the backing arrays are unboxed
   and push/pop never allocate; [Packet.none] fills vacant slots. Sizes
   ride in a parallel ring so byte accounting needs no arena access. *)
module Fifo = struct
  type q = {
    mutable buf : Packet.t array;
    mutable sz : int array;  (* sz.(i) = wire size of buf.(i) *)
    mutable head : int;
    mutable len : int;
    mutable bytes : int;
  }

  let create () =
    { buf = Array.make 64 Packet.none; sz = Array.make 64 0; head = 0;
      len = 0; bytes = 0 }

  (* [@lint.allow "A1"]: doubling amortises the fresh backing arrays to
     O(1) words per push, and a queue at its steady-state capacity never
     grows again. *)
  let[@lint.allow "A1"] grow q =
    let cap = Array.length q.buf in
    let buf = Array.make (2 * cap) Packet.none in
    let sz = Array.make (2 * cap) 0 in
    (* re-pack from [head] using the OLD capacity mask *)
    for i = 0 to q.len - 1 do
      let j = (q.head + i) land (cap - 1) in
      buf.(i) <- q.buf.(j);
      sz.(i) <- q.sz.(j)
    done;
    q.buf <- buf;
    q.sz <- sz;
    q.head <- 0

  let[@alloc.zero] push q pkt ~size =
    if q.len = Array.length q.buf then grow q;
    let i = (q.head + q.len) land (Array.length q.buf - 1) in
    q.buf.(i) <- pkt;
    q.sz.(i) <- size;
    q.len <- q.len + 1;
    q.bytes <- q.bytes + size

  let[@alloc.zero] pop_exn q =
    if q.len = 0 then raise Empty;
    let i = q.head in
    let pkt = q.buf.(i) in
    q.buf.(i) <- Packet.none;
    q.head <- (i + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    q.bytes <- q.bytes - q.sz.(i);
    pkt

  let pkts q = q.len
  let bytes q = q.bytes
end

type t = {
  name : string;
  enqueue : now:float -> size:int -> ecn:bool -> Packet.t -> verdict;
  dequeue : now:float -> Packet.t;
  fifo : Fifo.q;
  capacity_pkts : int;
}

let[@inline] pkt_length d = Fifo.pkts d.fifo
let[@inline] byte_length d = Fifo.bytes d.fifo
