(* ingest: the server's deterministic core in process, closed loop with one
   request outstanding. Each report of a Loadgen plan is encoded, framed,
   reassembled through Frame.Reader, decoded and handed to Core.handle on
   a Disk.Mem journal; Core.drain runs every [drain_every] submits and a
   final Core.root closes the episode. A fault-free crash and Core.recover
   follow, and the recovered root must be bit-identical. The episode length
   is fixed in reports, because per-report cost grows with the log. *)

open Ra_server
module Frame = Ra_core.Frame
module Disk = Ra_journal.Disk

let devices = 128
let reports_per_device = 16
let drain_every = 32
let jobs = 2
let config ~seed = { Core.devices; seed; capacity = 64 }
let plan ~seed = Loadgen.plan ~devices ~seed ~reports_per_device

let setup ~seed =
  ignore (plan ~seed);
  let _, disk, _ = Tdisk.mem () in
  ignore (Core.create ~config:(config ~seed) disk)

(* Client side and wire path of one Submit, as the Tcp server runs it. *)
let submit core reader (item : Loadgen.item) =
  let payload = Trace.span "wire.encode" (fun () -> Loadgen.submit_payload item) in
  let framed = Trace.span "frame.seal" (fun () -> Frame.seal_stream payload) in
  let received =
    Trace.span "frame.read" (fun () ->
        Frame.Reader.feed reader framed;
        Frame.Reader.next reader)
  in
  match received with
  | Frame.Reader.Frame p -> (
      match Trace.span "wire.decode" (fun () -> Wire.decode_request p) with
      | Ok req -> Trace.span "core.submit" (fun () -> Core.handle ~jobs core req)
      | Error e -> Wire.Rejected e)
  | Frame.Reader.Await | Frame.Reader.Corrupt _ -> Wire.Rejected "frame lost"

(* Traced only: the steps Core.drain runs per report, called one by one on
   a shadow world for a sample of the plan, under each report's id. *)
let decompose ~seed plan =
  let w = World.build ~devices ~seed in
  Array.iteri
    (fun i (item : Loadgen.item) ->
      if i mod 16 = 0 then
        Trace.with_rid (i + 1) (fun () ->
            let device = item.device in
            ignore (Trace.span "world.verify" (fun () -> World.verify w ~device item.report));
            match Trace.span "report.decode" (fun () -> Ra_core.Report.decode item.report) with
            | Error e -> Bench.check false "plan report %s#%d undecodable: %s" device item.seq e
            | Ok r ->
                let v =
                  Trace.span "fleet.verifier_for" (fun () ->
                      Ra_core.Fleet.verifier_for (World.fleet w) device)
                in
                ignore (Trace.span "verifier.expected_mac" (fun () -> Ra_core.Verifier.expected_mac v r));
                let verdict = Trace.span "verifier.verify" (fun () -> Ra_core.Verifier.verify v r) in
                Trace.span "world.record" (fun () ->
                    World.record w ~device ~seq:item.seq verdict r.Ra_core.Report.mac)))
    plan

let prepare ~seed =
  let plan = plan ~seed in
  let n = Array.length plan in
  fun ~traced ->
    let store, disk, counts = Tdisk.mem () in
    let core = Core.create ~config:(config ~seed) disk in
    let reader = Frame.Reader.create () in
    let latencies = Array.make n nan in
    let syncs0 = counts.syncs and bytes0 = counts.append_bytes in
    let root, win =
      Bench.window (fun () ->
          Array.iteri
            (fun i (item : Loadgen.item) ->
              Trace.with_rid (i + 1) (fun () ->
                  let t0 = Bench.now () in
                  match submit core reader item with
                  | Wire.Ack { device; seq } when device = item.device && seq = item.seq ->
                      latencies.(i) <- 1e3 *. (Bench.now () -. t0)
                  | r ->
                      Bench.check false "ingest: %s#%d answered %s" item.device item.seq
                        (Wire.response_to_string r));
              if (i + 1) mod drain_every = 0 then
                ignore (Trace.span "core.drain" (fun () -> Core.drain ~jobs core)))
            plan;
          ignore (Trace.span "core.drain" (fun () -> Core.drain ~jobs core));
          Trace.span "core.root" (fun () -> Core.root core))
    in
    let syncs = counts.syncs - syncs0 and bytes = counts.append_bytes - bytes0 in
    let during = if traced then Some (Trace.summarize ()) else None in
    Bench.attempt n;
    let c = Core.counters core in
    Bench.check (c.Wire.accepted = n) "ingest: accepted %d of %d" c.Wire.accepted n;
    let _, tampered, unreported = World.verdict_counts (Core.world core) in
    Bench.check
      (tampered = Loadgen.expected_tampered ~devices && unreported = 0)
      "ingest: %d tampered, %d unreported; expected %d and 0" tampered unreported
      (Loadgen.expected_tampered ~devices);
    Disk.Mem.crash ~faults:Disk.Mem.no_faults ~rng:(Ra_sim.Prng.create ~seed) store;
    let recovered, rwin =
      Bench.window (fun () -> Trace.span "core.recover" (fun () -> Core.recover disk))
    in
    (match recovered with
    | Ok core' ->
        Bench.check (Bytes.equal (Core.root core') root) "ingest: recovered root differs";
        Bench.check ((Core.counters core').Wire.recovered = n) "ingest: recovered %d of %d"
          (Core.counters core').Wire.recovered n
    | Error e -> Bench.check false "ingest: recovery failed: %s" e);
    let layer =
      match during with
      | None -> []
      | Some s ->
          decompose ~seed plan;
          let d = Trace.summarize () in
          let submits = Trace.durations "core.submit" in
          let tenth = max 1 (Array.length submits / 10) in
          let part lo = Bench.mean (Array.sub submits lo tenth) in
          let drain = Hashtbl.find s "core.drain" in
          [
            ("wire.decode_us", Trace.mean_us s "wire.decode");
            ("core.submit_us", Trace.mean_us ~self:true s "core.submit");
            ("core.submit_scale_x", part (Array.length submits - tenth) /. part 0);
            ("core.drain_us_per_report", 1e6 *. drain.Trace.total_s /. float_of_int n);
            ("core.recover_s", rwin.Bench.wall_s);
            ("disk.append_us", Trace.mean_us s "disk.append");
            ("disk.sync_us", Trace.mean_us s "disk.sync");
            ("disk.syncs_per_report", float_of_int syncs /. float_of_int n);
            ("disk.bytes_per_report", float_of_int bytes /. float_of_int n);
            ("world.verify_us", Trace.mean_us d "world.verify");
            ("world.root_ms", Trace.mean_us s "core.root" /. 1e3);
            ("fleet.verifier_for_us", Trace.mean_us d "fleet.verifier_for");
            ("verifier.verify_us", Trace.mean_us d "verifier.verify");
            ("verifier.expected_mac_us", Trace.mean_us d "verifier.expected_mac");
            ("report.decode_us", Trace.mean_us d "report.decode");
          ]
    in
    {
      Bench.items = n;
      win;
      jobs;
      latencies_ms = Array.of_list (List.filter (fun x -> x = x) (Array.to_list latencies));
      extra = [ ("recover_reports_per_s", float_of_int n /. rwin.Bench.wall_s) ];
      layer;
    }
