(* supervise: one Fleet_chaos campaign — the supervisor's closed loop
   (Health, Breaker), Reliable_protocol retransmits over lossy channels and
   the timer-heavy engine — recorded into a Journal over Disk.Mem, which
   takes many small records plus snapshots. Every invariant must hold
   (violations = []) and the fleet must converge. *)

let devices = 500
let jobs = 2

let journal () =
  let _, disk, counts = Tdisk.mem () in
  (Ra_journal.Journal.create disk, counts)

(* World provisioning: a campaign with no rounds. *)
let setup ~seed =
  ignore
    (Ra_experiments.Fleet_chaos.run ~devices ~seed ~jobs ~max_rounds:0
       ~journal:(fst (journal ())) ())

let prepare ~seed ~traced =
  let j, counts = journal () in
  let r, win =
    Bench.window (fun () ->
        Trace.span "fleet_chaos.run" (fun () ->
            Ra_experiments.Fleet_chaos.run ~devices ~seed ~jobs ~journal:j ()))
  in
  let report = r.Ra_experiments.Fleet_chaos.report in
  Bench.attempt devices;
  List.iter (fun v -> Bench.check false "supervise: %s" v) r.Ra_experiments.Fleet_chaos.violations;
  Bench.check report.Ra_supervisor.Supervisor.converged "supervise: campaign did not converge";
  let layer =
    if not traced then []
    else
      let s = Trace.summarize () in
      [
        ("supervisor.rounds", float_of_int report.Ra_supervisor.Supervisor.rounds);
        ("supervisor.attestations", float_of_int report.Ra_supervisor.Supervisor.attestations);
        ("supervisor.timeouts", float_of_int report.Ra_supervisor.Supervisor.timeouts);
        ("disk.syncs.supervise", float_of_int counts.Tdisk.syncs);
        ("disk.bytes.supervise", float_of_int (counts.Tdisk.append_bytes + counts.Tdisk.write_bytes));
        ("disk.sync_us.supervise", Trace.mean_us s "disk.sync");
        ("disk.append_us.supervise", Trace.mean_us s "disk.append");
      ]
  in
  {
    Bench.items = devices;
    win;
    jobs;
    latencies_ms = [| 1e3 *. win.Bench.wall_s |];
    extra = [];
    layer;
  }
