type state = {
  alpha : float;
  beta : float;
  gamma : float;
  mutable base_rtt : float;
  mutable epoch_start : float;
  mutable epoch_sum : float;
  mutable epoch_samples : int;
  mutable grow_epoch : bool;  (** slow start grows every other RTT *)
}

let adjust st (w : Cc.Window.t) ~now =
  if st.epoch_samples > 0 then begin
    let rtt_avg = st.epoch_sum /. float_of_int st.epoch_samples in
    let diff = w.Cc.Window.cwnd *. (1.0 -. (st.base_rtt /. rtt_avg)) in
    if w.Cc.Window.in_slow_start then begin
      if diff > st.gamma then begin
        (* Leave slow start; shed the excess backlog. *)
        w.Cc.Window.in_slow_start <- false;
        w.Cc.Window.cwnd <- Float.max 2.0 (w.Cc.Window.cwnd -. diff +. st.alpha)
      end
      else st.grow_epoch <- not st.grow_epoch
    end
    else if diff < st.alpha then w.Cc.Window.cwnd <- w.Cc.Window.cwnd +. 1.0
    else if diff > st.beta then
      w.Cc.Window.cwnd <- Float.max 2.0 (w.Cc.Window.cwnd -. 1.0)
  end;
  st.epoch_start <- now;
  st.epoch_sum <- 0.0;
  st.epoch_samples <- 0

let create ?(alpha = 1.0) ?(beta = 3.0) ?(gamma = 1.0) () =
  let st =
    {
      alpha;
      beta;
      gamma;
      base_rtt = infinity;
      epoch_start = neg_infinity;
      epoch_sum = 0.0;
      epoch_samples = 0;
      grow_epoch = true;
    }
  in
  let on_ack (w : Cc.Window.t) ~newly_acked ~rtt ~now =
    (match rtt with
    | Some sample ->
        let sample = Units.Time.to_s sample in
        if sample < st.base_rtt then st.base_rtt <- sample;
        st.epoch_sum <- st.epoch_sum +. sample;
        st.epoch_samples <- st.epoch_samples + 1
    | None -> ());
    if w.Cc.Window.in_slow_start && st.grow_epoch then
      w.Cc.Window.cwnd <- w.Cc.Window.cwnd +. float_of_int newly_acked;
    let rtt_estimate =
      if st.epoch_samples > 0 then st.epoch_sum /. float_of_int st.epoch_samples
      else st.base_rtt
    in
    if
      st.base_rtt < infinity
      && now -. st.epoch_start >= rtt_estimate
    then adjust st w ~now
  in
  {
    Cc.name = "vegas";
    on_ack;
    early = (fun _ ~rtt:_ ~now:_ -> Cc.No_response);
    on_loss = (fun ~now:_ -> ());
  }
