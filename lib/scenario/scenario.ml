module Sim = Sim_engine.Sim
module T = Netsim.Topology
module Schemes = Experiments.Schemes

(* A link's queue is the bottleneck queue of a scheme, and a flow's
   controller is the controller of one. *)
type link_spec = {
  l_src : string;
  l_dst : string;
  bw : float;
  delay : float;
  queue : Schemes.t;
  qlen : int;
}

type flow_spec = {
  f_src : string;
  f_dst : string;
  cc : Schemes.t;
  f_start : float;
  total : int option;
  ecn : bool;
  owd : bool;
  delack : bool;
  label : string;
}

type web_spec = { w_src : string; w_dst : string; sessions : int }

type cbr_spec = {
  c_src : string;
  c_dst : string;
  rate : float;
  c_start : float;
  c_stop : float option;
}

type t = {
  node_names : string list;  (* declaration order *)
  links : link_spec list;
  flows : flow_spec list;
  webs : web_spec list;
  cbrs : cbr_spec list;
  seed : int;
  horizon : float;
}

type report = {
  duration : float;
  flows : (string * Units.Rate.t) list;
  links : (string * float * Units.Pkts.t * int) list;
}

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_rate s =
  let n = String.length s in
  if n = 0 then fail "empty rate";
  let mult, cut =
    match s.[n - 1] with
    | 'k' | 'K' -> (1e3, 1)
    | 'M' -> (1e6, 1)
    | 'G' -> (1e9, 1)
    | _ -> (1.0, 0)
  in
  match float_of_string_opt (String.sub s 0 (n - cut)) with
  | Some v when v > 0.0 -> v *. mult
  | _ -> fail "bad rate %S" s

let parse_time s =
  let n = String.length s in
  let v suffix mult =
    let body = String.sub s 0 (n - String.length suffix) in
    match float_of_string_opt body with
    | Some v when v >= 0.0 -> v *. mult
    | _ -> fail "bad time %S" s
  in
  if n > 2 && String.sub s (n - 2) 2 = "ms" then v "ms" 1e-3
  else if n > 1 && s.[n - 1] = 's' then v "s" 1.0
  else
    match float_of_string_opt s with
    | Some x when x >= 0.0 -> x
    | _ -> fail "bad time %S" s

let parse_queue s =
  match String.split_on_char ':' s with
  | [ kind; len ] -> (
      let qlen =
        match int_of_string_opt len with
        | Some n when n > 0 -> n
        | _ -> fail "bad queue length %S" len
      in
      match Schemes.of_string kind with
      | Ok scheme -> (scheme, qlen)
      | Error _ -> fail "unknown queue kind %S" kind)
  | _ -> fail "queue must be KIND:PKTS, got %S" s

let parse_cc s =
  match Schemes.of_string s with
  | Ok scheme -> scheme
  | Error _ -> fail "unknown cc %S" s

(* key=value and bare-flag arguments *)
let kv_args words =
  List.map
    (fun w ->
      match String.index_opt w '=' with
      | Some i ->
          (String.sub w 0 i, Some (String.sub w (i + 1) (String.length w - i - 1)))
      | None -> (w, None))
    words

let get_req args key line =
  match List.assoc_opt key args with
  | Some (Some v) -> v
  | _ -> fail "directive %S needs %s=..." line key

let get_opt args key = match List.assoc_opt key args with Some v -> v | None -> None
let has_flag args key = List.mem_assoc key args

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let parse source =
  let node_names = ref [] in
  let links = ref [] in
  let flows = ref [] in
  let webs = ref [] in
  let cbrs = ref [] in
  let seed = ref 42 in
  let horizon = ref None in
  let flow_count = ref 0 in
  let known name =
    if not (List.mem name !node_names) then fail "unknown node %S" name
  in
  let add_link l_src l_dst rest line =
    known l_src;
    known l_dst;
    let args = kv_args rest in
    let bw = parse_rate (get_req args "bw" line) in
    let delay = parse_time (get_req args "delay" line) in
    let queue, qlen = parse_queue (get_req args "queue" line) in
    links := { l_src; l_dst; bw; delay; queue; qlen } :: !links
  in
  let directive line =
    match split_words line with
    | [] -> ()
    | [ "node"; name ] ->
        if List.mem name !node_names then fail "duplicate node %S" name;
        node_names := !node_names @ [ name ]
    | "link" :: s :: d :: rest -> add_link s d rest line
    | "duplex" :: a :: b :: rest ->
        add_link a b rest line;
        add_link b a rest line
    | "flow" :: s :: d :: rest ->
        known s;
        known d;
        let args = kv_args rest in
        incr flow_count;
        flows :=
          {
            f_src = s;
            f_dst = d;
            cc = parse_cc (get_req args "cc" line);
            f_start =
              (match get_opt args "start" with Some v -> parse_time v | None -> 0.0);
            total =
              (match get_opt args "total" with
              | Some v -> (
                  match int_of_string_opt v with
                  | Some n when n > 0 -> Some n
                  | _ -> fail "bad total %S" v)
              | None -> None);
            ecn = has_flag args "ecn";
            owd = has_flag args "owd";
            delack = has_flag args "delack";
            label = Printf.sprintf "flow%d(%s->%s)" !flow_count s d;
          }
          :: !flows
    | "web" :: s :: d :: rest ->
        known s;
        known d;
        let args = kv_args rest in
        let sessions =
          match int_of_string_opt (get_req args "sessions" line) with
          | Some n when n > 0 -> n
          | _ -> fail "bad sessions count"
        in
        webs := { w_src = s; w_dst = d; sessions } :: !webs
    | "cbr" :: s :: d :: rest ->
        known s;
        known d;
        let args = kv_args rest in
        cbrs :=
          {
            c_src = s;
            c_dst = d;
            rate = parse_rate (get_req args "rate" line);
            c_start =
              (match get_opt args "start" with Some v -> parse_time v | None -> 0.0);
            c_stop =
              (match get_opt args "stop" with
              | Some v -> Some (parse_time v)
              | None -> None);
          }
          :: !cbrs
    | [ "seed"; n ] -> (
        match int_of_string_opt n with
        | Some v -> seed := v
        | None -> fail "bad seed %S" n)
    | [ "run"; t ] ->
        if !horizon <> None then fail "duplicate run directive";
        horizon := Some (parse_time t)
    | w :: _ -> fail "unknown directive %S" w
  in
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  try
    List.iteri
      (fun i line ->
        try directive (strip_comment line)
        with Parse_error msg -> fail "line %d: %s" (i + 1) msg)
      (String.split_on_char '\n' source);
    match !horizon with
    | None -> Error "missing `run TIME` directive"
    | Some horizon ->
        if !links = [] then Error "scenario has no links"
        else
          Ok
            {
              node_names = !node_names;
              links = List.rev !links;
              flows = List.rev !flows;
              webs = List.rev !webs;
              cbrs = List.rev !cbrs;
              seed = !seed;
              horizon;
            }
  with Parse_error msg -> Error msg

(* --- execution ----------------------------------------------------------- *)

(* Every queue and controller is designed for one nominal point: a
   100 ms RTT shared by 10 flows. A queue sees its own link's capacity
   and buffer; a controller, which belongs to no link, sees 1000 pkt/s
   and no buffer. *)
let design sim ~capacity_pps ~limit_pkts =
  { Schemes.sim; capacity_pps; limit_pkts; rtt = 0.1; nflows = 10 }

let run t =
  let sim = Sim.create ~seed:t.seed () in
  let topo = T.create sim in
  let nodes = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.replace nodes name (T.add_node topo)) t.node_names;
  let node name = Hashtbl.find nodes name in
  let links =
    List.map
      (fun l ->
        let link =
          T.add_link topo ~src:(node l.l_src) ~dst:(node l.l_dst)
            ~bandwidth:(Units.Rate.bps l.bw)
            ~delay:(Units.Time.s l.delay)
            ~disc:
              (Schemes.bottleneck_disc l.queue
                 (design sim
                    ~capacity_pps:
                      (l.bw /. (8.0 *. float_of_int Netsim.Packet.data_size))
                    ~limit_pkts:l.qlen))
        in
        (Printf.sprintf "%s->%s" l.l_src l.l_dst, link))
      t.links
  in
  T.compute_routes topo;
  let cc_ctx = design sim ~capacity_pps:1000.0 ~limit_pkts:0 in
  let flows =
    List.map
      (fun f ->
        let flow =
          Tcpstack.Flow.create topo ~src:(node f.f_src) ~dst:(node f.f_dst)
            ~cc:(Schemes.cc_factory f.cc cc_ctx ())
            ~ecn:f.ecn ?total_pkts:f.total
            ~start:(Units.Time.s f.f_start)
            ~delay_signal:(if f.owd then `Owd else `Rtt)
            ~delayed_acks:f.delack ()
        in
        (f.label, flow))
      t.flows
  in
  List.iter
    (fun w ->
      ignore
        (Traffic.Web.start_sessions topo ~n:w.sessions
           ~src_pool:[| node w.w_src |] ~dst_pool:[| node w.w_dst |]
           ~cc_factory:Tcpstack.Cc.newreno ()))
    t.webs;
  List.iter
    (fun c ->
      ignore
        (Traffic.Cbr.start topo ~src:(node c.c_src) ~dst:(node c.c_dst)
           ~rate:(Units.Rate.bps c.rate)
           ~start:(Units.Time.s c.c_start)
           ?stop:(Option.map Units.Time.s c.c_stop) ()))
    t.cbrs;
  Sim.run ~until:(Units.Time.s t.horizon) sim;
  {
    duration = t.horizon;
    flows =
      List.map
        (fun (label, flow) ->
          (label, Tcpstack.Flow.goodput_bps flow ~now:(Sim.now sim)))
        flows;
    links =
      List.map
        (fun (name, link) ->
          ( name,
            Netsim.Link.utilization link,
            Netsim.Link.avg_queue_pkts link,
            Netsim.Link.drops link ))
        links;
  }

let parse_and_run source = Result.map run (parse source)

let pp_report fmt r =
  Format.fprintf fmt "simulated %.1f s@." r.duration;
  List.iter
    (fun (label, goodput) ->
      Format.fprintf fmt "%-24s %8.3f Mbps@." label (Units.Rate.to_mbps goodput))
    r.flows;
  List.iter
    (fun (name, util, q, drops) ->
      Format.fprintf fmt "%-24s util=%.3f avg_queue=%.1f drops=%d@." name util
        (Units.Pkts.to_float q) drops)
    r.links
