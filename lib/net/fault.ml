module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module Rng = Sim_engine.Rng
module Time = Units.Time
module Prob = Units.Prob

type outages =
  | No_outages
  | Scheduled of (Time.t * Time.t) list
  | Flapping of { mean_up : Time.t; mean_down : Time.t }

type spec = {
  drop_prob : Prob.t;
  corrupt_prob : Prob.t;
  bleach_prob : Prob.t;
  remark_prob : Prob.t;
  dup_prob : Prob.t;
  reorder_prob : Prob.t;
  reorder_extra : Time.t;
  spike_prob : Prob.t;
  spike_delay : Time.t;
  outages : outages;
}

let none =
  {
    drop_prob = Prob.zero;
    corrupt_prob = Prob.zero;
    bleach_prob = Prob.zero;
    remark_prob = Prob.zero;
    dup_prob = Prob.zero;
    reorder_prob = Prob.zero;
    reorder_extra = Time.zero;
    spike_prob = Prob.zero;
    spike_delay = Time.zero;
    outages = No_outages;
  }

let lossy p = { none with drop_prob = p }

(* Probabilities are honest by construction ([Prob.t] is clamped and
   NaN-free); only the durations still need validating. *)
let validate spec =
  if Time.to_s spec.reorder_extra < 0.0 then
    invalid_arg "Fault: negative reorder_extra";
  if Time.to_s spec.spike_delay < 0.0 then
    invalid_arg "Fault: negative spike_delay";
  (match spec.outages with
  | No_outages -> ()
  | Scheduled windows ->
      List.iter
        (fun (down_at, up_at) ->
          if Time.to_s down_at < 0.0 || Time.compare up_at down_at <= 0 then
            invalid_arg "Fault: outage windows need 0 <= down_at < up_at")
        windows
  | Flapping { mean_up; mean_down } ->
      if Time.to_s mean_up <= 0.0 || Time.to_s mean_down <= 0.0 then
        invalid_arg "Fault: flapping means must be positive")

type stats = {
  wire_drops : int;
  corrupted : int;
  bleached : int;
  remarked : int;
  duplicated : int;
  reordered : int;
  delayed : int;
  outage_drops : int;
  transitions : int;
  downtime : float;
}

type t = {
  sim : Sim.t;
  link : Link.t;
  spec : spec;
  pkt_rng : Rng.t;
  outage_rng : Rng.t;
  mutable wire_drops : int;
  mutable corrupted : int;
  mutable bleached : int;
  mutable remarked : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
  mutable transitions : int;
  mutable downtime : float;
  mutable went_down_at : float option;
  (* The delivery chain below this layer, captured out of
     [Link.interpose_deliver] at attach time so the delayed-reinjection
     event kind can reach it through its payload (the fault layer)
     instead of a per-packet closure. *)
  mutable inner : Packet.t -> unit;
}

let go_down t =
  if Link.is_up t.link then begin
    t.transitions <- t.transitions + 1;
    t.went_down_at <- Some (Sim.now t.sim);
    Link.set_up t.link false
  end

let go_up t =
  if not (Link.is_up t.link) then begin
    t.transitions <- t.transitions + 1;
    (match t.went_down_at with
    | Some since -> t.downtime <- t.downtime +. (Sim.now t.sim -. since)
    | None -> ());
    t.went_down_at <- None;
    Link.set_up t.link true
  end

let down_kind = Event.define ~name:"fault.down" go_down
let up_kind = Event.define ~name:"fault.up" go_up

(* Flapping as one self-alternating kind; the phase rides in the unboxed
   slot (0 = the link is up and this event ends the up phase). Each
   firing draws the next phase's duration, exactly where the old
   recursive closures drew it, so the [outage_rng] stream — and every
   seeded run — is unchanged. *)
let flap_kind, set_flap_kind = Event.declare ~name:"fault.flap"

let () =
  set_flap_kind (fun t phase ->
      match t.spec.outages with
      | Flapping { mean_up; mean_down } ->
          if phase = 0 then begin
            go_down t;
            Sim.after t.sim
              (Time.s (Rng.exponential t.outage_rng (Time.to_s mean_down)))
              (flap_kind t 1)
          end
          else begin
            go_up t;
            Sim.after t.sim
              (Time.s (Rng.exponential t.outage_rng (Time.to_s mean_up)))
              (flap_kind t 0)
          end
      | No_outages | Scheduled _ -> assert false)

let schedule_outages t =
  match t.spec.outages with
  | No_outages -> ()
  | Scheduled windows ->
      List.iter
        (fun (down_at, up_at) ->
          Sim.at t.sim down_at (down_kind t);
          Sim.at t.sim up_at (up_kind t))
        windows
  | Flapping { mean_up; mean_down = _ } ->
      Sim.after t.sim
        (Time.s (Rng.exponential t.outage_rng (Time.to_s mean_up)))
        (flap_kind t 0)

(* Applied at the receiver end of the wire: the packet has already left
   the queue and crossed the link, which is where non-congestive loss,
   corruption and ECN meddling physically happen. Each impairment draws
   from [pkt_rng] only when its probability is non-zero, so a given spec
   always consumes the same number of draws per packet and replays are
   bit-identical. Owns the packet: a wire drop frees it, every delivered
   path hands ownership to [t.inner]. *)
let reinject_kind =
  Event.define2 ~name:"fault.reinject" (fun t pkt ->
      t.inner (Packet.unsafe_of_int pkt))

let impair t pkt =
  let inner = t.inner in
  let a = Link.arena t.link in
  let s = t.spec in
  let hit p = Prob.positive p && Rng.bernoulli t.pkt_rng p in
  if hit s.drop_prob then begin
    t.wire_drops <- t.wire_drops + 1;
    Packet.free a pkt
  end
  else if hit s.corrupt_prob then begin
    (* Bit corruption no longer silently eats the packet here: the
       mangled segment is delivered with [corrupted] set and must fail
       the checksum-style validity gate in the Flow receive path — the
       endpoint, not the wire, is where a corrupt segment is detected
       and discarded. The rng draw order per packet is unchanged. *)
    t.corrupted <- t.corrupted + 1;
    Packet.set_corrupted a pkt true;
    inner pkt
  end
  else begin
    if Packet.ecn_marked a pkt && hit s.bleach_prob then begin
      Packet.set_ecn_marked a pkt false;
      t.bleached <- t.bleached + 1
    end;
    if Packet.ecn_capable a pkt
       && (not (Packet.ecn_marked a pkt))
       && hit s.remark_prob
    then begin
      Packet.set_ecn_marked a pkt true;
      t.remarked <- t.remarked + 1
    end;
    let extra = ref 0.0 in
    if hit s.reorder_prob then begin
      t.reordered <- t.reordered + 1;
      extra := !extra +. Rng.float t.pkt_rng (Time.to_s s.reorder_extra)
    end;
    if hit s.spike_prob then begin
      t.delayed <- t.delayed + 1;
      extra := !extra +. Time.to_s s.spike_delay
    end;
    let dup = hit s.dup_prob in
    if dup then t.duplicated <- t.duplicated + 1;
    (* Materialize the duplicate before delivering the original: [inner]
       consumes (and may free) its packet, so the copy must come first. *)
    let dup_pkt = if dup then Packet.copy a pkt else Packet.none in
    if !extra > 0.0 then
      Sim.after t.sim (Time.s !extra) (reinject_kind t ((pkt :> int)))
    else inner pkt;
    (* The duplicate takes the direct path even when the original was
       delayed — that itself is a reordering, as on real networks. *)
    if dup then inner dup_pkt
  end

let attach spec link =
  validate spec;
  let sim = Link.sim link in
  let t =
    {
      sim;
      link;
      spec;
      pkt_rng = Rng.split (Sim.rng sim);
      outage_rng = Rng.split (Sim.rng sim);
      wire_drops = 0;
      corrupted = 0;
      bleached = 0;
      remarked = 0;
      duplicated = 0;
      reordered = 0;
      delayed = 0;
      transitions = 0;
      downtime = 0.0;
      went_down_at = None;
      inner = (fun _ -> invalid_arg "Fault: not attached");
    }
  in
  Link.interpose_deliver link (fun inner ->
      t.inner <- inner;
      impair t);
  schedule_outages t;
  t


let stats t =
  let downtime =
    match t.went_down_at with
    | Some since -> t.downtime +. (Sim.now t.sim -. since)
    | None -> t.downtime
  in
  {
    wire_drops = t.wire_drops;
    corrupted = t.corrupted;
    bleached = t.bleached;
    remarked = t.remarked;
    duplicated = t.duplicated;
    reordered = t.reordered;
    delayed = t.delayed;
    outage_drops = Link.outage_drops t.link;
    transitions = t.transitions;
    downtime;
  }

let lost t = t.wire_drops + t.corrupted + Link.outage_drops t.link

(* --- adversary: blind RST storms, ACK storms, window clamping ----------- *)

type adversary = {
  rst_rate : float;
  rst_guess_range : int;
  ack_rate : float;
  ack_burst : int;
  clamp_episodes : (Time.t * Time.t) list;
  clamp_to : int;
}

(* A realistic blind attacker knows the connection tuple but not the
   sequence state; the default +-4096-packet guess spread makes exact
   hits (the only forgery RFC 5961 accepts) a ~1-in-8192 event per RST
   while still landing most guesses inside a large receive window. *)
let passive =
  {
    rst_rate = 0.0;
    rst_guess_range = 4096;
    ack_rate = 0.0;
    ack_burst = 3;
    clamp_episodes = [];
    clamp_to = 0;
  }

let validate_adversary a =
  if
    Float.is_nan a.rst_rate || a.rst_rate < 0.0 || Float.is_nan a.ack_rate
    || a.ack_rate < 0.0
  then invalid_arg "Fault: adversary rates must be finite and >= 0";
  if a.rst_guess_range < 1 then
    invalid_arg "Fault: adversary rst_guess_range must be >= 1";
  if a.ack_burst < 1 then invalid_arg "Fault: adversary ack_burst must be >= 1";
  if a.clamp_to < 0 || a.clamp_to > 0xFFFF then
    invalid_arg "Fault: adversary clamp_to must fit the 16-bit window field";
  List.iter
    (fun (from_t, to_t) ->
      if Time.to_s from_t < 0.0 || Time.compare to_t from_t <= 0 then
        invalid_arg "Fault: clamp episodes need 0 <= from < to")
    a.clamp_episodes

(* Per-flow connection state the attacker has snooped off the wire: node
   ids to address forged packets and sequence/ack high-water marks to aim
   them near the window. *)
type snooped = {
  mutable data_dst : int;  (** the data receiver's node id *)
  mutable data_src : int;
  mutable seq_seen : int;  (** highest data sequence observed + 1 *)
  mutable ack_seen : int;  (** highest cumulative ack observed *)
  mutable wnd_seen : int;  (** last raw window field observed *)
}

type attack_stats = {
  forged_rsts : int;
  forged_acks : int;
  clamped_acks : int;
  flows_seen : int;
}

type attack = {
  a_sim : Sim.t;
  adv : adversary;
  data_link : Link.t;
  ack_link : Link.t;
  a_rng : Rng.t;
  a_arena : Packet.arena;
  snoop_tbl : (int, snooped) Hashtbl.t;
  mutable snoop_order : int list;  (** flow ids, first-seen order (rev) *)
  mutable forged_rsts : int;
  mutable forged_acks : int;
  mutable clamped_acks : int;
}

let in_clamp t ~now =
  List.exists
    (fun (from_t, to_t) -> now >= Time.to_s from_t && now < Time.to_s to_t)
    t.adv.clamp_episodes

let snooped_for t flow =
  match Hashtbl.find_opt t.snoop_tbl flow with
  | Some s -> s
  | None ->
      let s =
        {
          data_dst = -1;
          data_src = -1;
          seq_seen = 0;
          ack_seen = 0;
          wnd_seen = 0xFFFF;
        }
      in
      Hashtbl.replace t.snoop_tbl flow s;
      t.snoop_order <- flow :: t.snoop_order;
      s

(* Wiretap on a link's delivery path: learn connection endpoints and
   sequence ranges, and rewrite window advertisements during a clamp
   episode (a classic on-path downgrade that the victim cannot tell from
   genuine receiver backpressure). *)
let snoop t inner pkt =
  let a = t.a_arena in
  (match Packet.kind a pkt with
  | Packet.Data ->
      let s = snooped_for t (Packet.flow a pkt) in
      s.data_dst <- Packet.dst a pkt;
      s.data_src <- Packet.src a pkt;
      let seq = Packet.seq a pkt in
      if seq + 1 > s.seq_seen then s.seq_seen <- seq + 1
  | Packet.Ack ->
      let s = snooped_for t (Packet.flow a pkt) in
      let ack = Packet.seq a pkt in
      let window = Packet.window a pkt in
      if ack > s.ack_seen then s.ack_seen <- ack;
      s.wnd_seen <- window;
      if in_clamp t ~now:(Sim.now t.a_sim) && window > t.adv.clamp_to
      then begin
        Packet.set_window a pkt t.adv.clamp_to;
        t.clamped_acks <- t.clamped_acks + 1
      end
  | Packet.Probe | Packet.Rst -> ());
  inner pkt

let pick_target t =
  match t.snoop_order with
  | [] -> None
  | order ->
      let order = List.rev order in
      let flow = List.nth order (Rng.int t.a_rng (List.length order)) in
      Option.map (fun s -> (flow, s)) (Hashtbl.find_opt t.snoop_tbl flow)

(* A blind RST: the attacker knows the connection tuple but must guess
   the sequence number, drawn uniformly around the last snooped
   high-water mark. With RFC 5961 validation only an exact guess kills
   the connection; in-window guesses cost the victim a challenge ACK. *)
let inject_rst t =
  match pick_target t with
  | None -> ()
  | Some (flow, s) when s.data_dst >= 0 ->
      let now = Sim.now t.a_sim in
      let toward_receiver = Rng.bool t.a_rng in
      let base = if toward_receiver then s.seq_seen else s.ack_seen in
      let guess =
        let r = t.adv.rst_guess_range in
        max 0 (base + Rng.int t.a_rng (2 * r) - r)
      in
      let dst = if toward_receiver then s.data_dst else s.data_src in
      let src = if toward_receiver then s.data_src else s.data_dst in
      let link = if toward_receiver then t.data_link else t.ack_link in
      let pkt = Packet.rst t.a_arena ~flow ~src ~dst ~seq:guess ~now () in
      t.forged_rsts <- t.forged_rsts + 1;
      Link.send link pkt
  | Some _ -> ()

(* A burst of forged duplicate ACKs toward the data sender: enough of
   them trigger a spurious fast retransmit and a window cut. ts_echo is
   NaN so the forgery can never feed the victim's RTT estimator. *)
let inject_acks t =
  match pick_target t with
  | None -> ()
  | Some (flow, s) when s.data_dst >= 0 ->
      let now = Sim.now t.a_sim in
      for _ = 1 to t.adv.ack_burst do
        let pkt =
          Packet.ack t.a_arena ~flow ~src:s.data_dst ~dst:s.data_src
            ~ack:s.ack_seen ~sack:[] ~ecn_echo:false ~ts_echo:Float.nan
            ~window:s.wnd_seen ~now ()
        in
        t.forged_acks <- t.forged_acks + 1;
        Link.send t.ack_link pkt
      done
  | Some _ -> ()

(* Self-rescheduling storm kinds: each firing injects, then draws the
   next inter-arrival — the same draw order as the old recursive
   closures, so the [a_rng] stream is unchanged. Rescheduling is
   unconditional, as before: a storm outlives any single [Sim.run]. *)
let rst_storm_kind =
  Event.define_rec ~name:"fault.rst-storm" (fun self t ->
      inject_rst t;
      Sim.after t.a_sim
        (Time.s (Rng.exponential t.a_rng (1.0 /. t.adv.rst_rate)))
        (self t))

let ack_storm_kind =
  Event.define_rec ~name:"fault.ack-storm" (fun self t ->
      inject_acks t;
      Sim.after t.a_sim
        (Time.s (Rng.exponential t.a_rng (1.0 /. t.adv.ack_rate)))
        (self t))

let schedule_storm t ~rate kind =
  if rate > 0.0 then
    Sim.after t.a_sim
      (Time.s (Rng.exponential t.a_rng (1.0 /. rate)))
      (kind t)

let attack adv ~data ~ack =
  validate_adversary adv;
  let sim = Link.sim data in
  let t =
    {
      a_sim = sim;
      adv;
      data_link = data;
      ack_link = ack;
      a_rng = Rng.split (Sim.rng sim);
      a_arena = Link.arena data;
      snoop_tbl = Hashtbl.create 16;
      snoop_order = [];
      forged_rsts = 0;
      forged_acks = 0;
      clamped_acks = 0;
    }
  in
  Link.interpose_deliver data (snoop t);
  Link.interpose_deliver ack (snoop t);
  (* RST storm first, then ACK storm: a fixed schedule-creation order
     keeps the rng stream replayable. *)
  schedule_storm t ~rate:adv.rst_rate rst_storm_kind;
  schedule_storm t ~rate:adv.ack_rate ack_storm_kind;
  t

let attack_stats t =
  {
    forged_rsts = t.forged_rsts;
    forged_acks = t.forged_acks;
    clamped_acks = t.clamped_acks;
    flows_seen = Hashtbl.length t.snoop_tbl;
  }
