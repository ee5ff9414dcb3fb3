(* The traced replica must equal Dumbbell.run byte for byte. If
   Dumbbell.build drifts from Replica.build, this fails here, before a
   traced benchmark run can report a ledger for a different scenario.
   Silent on success; tiny scale, well under a second. *)

module D = Experiments.Dumbbell
module S = Experiments.Schemes

let tiny scheme ~web =
  D.uniform_flows
    {
      D.default with
      D.scheme;
      bandwidth = 5e6;
      duration = 4.0;
      warmup = 1.0;
      start_window = (0.0, 0.2);
      web_sessions = web;
      reverse_flows = 1;
      seed = 7;
    }
    ~n:3

let () =
  let cases =
    [
      ("pert", tiny S.Pert ~web:0);
      ("sack-droptail", tiny S.Sack_droptail ~web:0);
      ("sack-red-ecn", tiny S.Sack_red_ecn ~web:0);
      ("vegas", tiny S.Vegas ~web:0);
      ("pert+web", tiny S.Pert ~web:40);
    ]
  in
  let failures =
    List.filter
      (fun (name, config) ->
        let expected = Workloads.render_cell (D.run config) in
        let replica, _ = Replica.run (Replica.build config) in
        let got = Workloads.render_cell replica in
        let same = String.equal expected got in
        if not same then
          Printf.eprintf
            "fidelity: %s: instrumented replica differs from Dumbbell.run\n\
             --- Dumbbell.run\n%s--- replica\n%s"
            name expected got;
        not same)
      cases
  in
  if failures <> [] then exit 1
