type history = int -> float -> float

(* Dense storage of the trajectory: step k holds x(t0 + k dt). History
   lookups interpolate linearly; times before t0 use the initial history.
   [run] knows the step count up front and sizes the store for every
   step, so it is allocated once rather than doubled through a chain of
   dead arrays that the GC must sweep. *)
type store = {
  dim : int;
  t0 : float;
  dt : float;
  data : float array;  (* row-major: step * dim + var *)
  mutable steps : int;  (* number of stored steps *)
  initial : history;
}

let store_create ~dim ~t0 ~dt ~init ~initial ~steps =
  let data = Array.make (steps * dim) 0.0 in
  Array.blit init 0 data 0 dim;
  { dim; t0; dt; data; steps = 1; initial }

let store_push st x =
  Array.blit x 0 st.data (st.steps * st.dim) st.dim;
  st.steps <- st.steps + 1

let store_lookup st i tau =
  if tau <= st.t0 then st.initial i tau
  else begin
    let pos = (tau -. st.t0) /. st.dt in
    let k = Units.Round.trunc pos in
    let k = if k >= st.steps - 1 then st.steps - 1 else k in
    if k >= st.steps - 1 then st.data.((st.steps - 1) * st.dim + i)
    else
      let frac = pos -. float_of_int k in
      let a = st.data.((k * st.dim) + i) and b = st.data.(((k + 1) * st.dim) + i) in
      a +. (frac *. (b -. a))
  end

let validate ~init ~t0 ~t1 ~dt =
  if dt <= 0.0 then invalid_arg "Dde: dt must be positive";
  if Array.length init = 0 then invalid_arg "Dde: empty state";
  if t1 <= t0 then invalid_arg "Dde: t1 must exceed t0"

let run ~stepper ~f ~init ?initial_history ~t0 ~t1 ~dt ?(record_every = 1) () =
  validate ~init ~t0 ~t1 ~dt;
  let dim = Array.length init in
  let initial =
    match initial_history with Some h -> h | None -> fun i _ -> init.(i)
  in
  let nsteps = Units.Round.ceil ((t1 -. t0) /. dt) in
  let st = store_create ~dim ~t0 ~dt ~init ~initial ~steps:(nsteps + 1) in
  let hist i tau = store_lookup st i tau in
  let nrec = (nsteps / record_every) + 1 in
  let times = Array.make nrec 0.0 in
  let series = Array.init dim (fun _ -> Array.make nrec 0.0) in
  let record k step x =
    times.(k) <- t0 +. (float_of_int step *. dt);
    for i = 0 to dim - 1 do
      series.(i).(k) <- x.(i)
    done
  in
  let x = Array.copy init in
  record 0 0 x;
  let rec_k = ref 1 in
  for step = 1 to nsteps do
    let t = t0 +. (float_of_int (step - 1) *. dt) in
    let x' = stepper f t x dt hist in
    Array.blit x' 0 x 0 dim;
    store_push st x;
    if step mod record_every = 0 && !rec_k < nrec then begin
      record !rec_k step x;
      incr rec_k
    end
  done;
  if !rec_k < nrec then begin
    (* trim unused slots (when nsteps not divisible by record_every) *)
    let times = Array.sub times 0 !rec_k in
    let series = Array.map (fun s -> Array.sub s 0 !rec_k) series in
    (times, series)
  end
  else (times, series)

let axpy x a y =
  (* x + a*y elementwise, fresh array *)
  Array.mapi (fun i xi -> xi +. (a *. y.(i))) x

let rk4_step f t x dt hist =
  let k1 = f t x hist in
  let k2 = f (t +. (dt /. 2.0)) (axpy x (dt /. 2.0) k1) hist in
  let k3 = f (t +. (dt /. 2.0)) (axpy x (dt /. 2.0) k2) hist in
  let k4 = f (t +. dt) (axpy x dt k3) hist in
  Array.mapi
    (fun i xi ->
      xi +. (dt /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))
    x

let euler_step f t x dt hist = axpy x dt (f t x hist)

let integrate ~f ~init ?initial_history ~t0 ~t1 ~dt ?record_every () =
  run ~stepper:rk4_step ~f ~init ?initial_history ~t0 ~t1 ~dt ?record_every ()

let euler ~f ~init ?initial_history ~t0 ~t1 ~dt ?record_every () =
  run ~stepper:euler_step ~f ~init ?initial_history ~t0 ~t1 ~dt ?record_every ()
