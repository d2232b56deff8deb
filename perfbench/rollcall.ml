(* rollcall: verifier-initiated attestation of a whole fleet. Fleet_roll
   builds the world (virtual provisioning, every 1000th device infected),
   then one Fleet.sharded_roll_call runs at [jobs] domains and [shards]
   shards. No journal, wire or socket is involved. The fleet root, shard
   roots and tampered set must match a jobs-1 roll call of the same
   world. *)

open Ra_core

let devices = 4096
let jobs = 2
let shards = 2
let sample_every = 32

let setup ~seed = ignore (Ra_experiments.Fleet_roll.build ~devices ~seed)

(* Traced only: after the roll call, attest a sample of its devices one by
   one through the steps the roll call takes per device (materialize,
   verifier view, MP + protocol, verify, leaf), then fold their leaves. *)
let sample fleet =
  let ids = Array.of_list (Fleet.enrolled fleet) in
  let leaves =
    Array.init (devices / sample_every) (fun k ->
        let id = ids.(k * sample_every) in
        Trace.with_rid (k + 1) (fun () ->
            let dev = Trace.span "fleet.materialize" (fun () -> Fleet.device fleet id) in
            let v = Trace.span "verifier.of_device" (fun () -> Verifier.of_device dev) in
            let out = ref None in
            Trace.span "mp.measure" (fun () ->
                Protocol.on_demand dev v Mp.default_config ~net_delay:(Ra_sim.Timebase.ms 40)
                  ~auth_time:(Ra_sim.Timebase.us 200)
                  ~on_done:(fun e -> out := Some e.Protocol.report)
                  ();
                Ra_device.Device.run dev);
            match !out with
            | None ->
                Bench.check false "rollcall: sampled device %s never reported" id;
                Bytes.empty
            | Some r ->
                let verdict = Trace.span "verifier.verify" (fun () -> Verifier.verify v r) in
                Trace.span "fleet.leaf" (fun () ->
                    Bytes.concat Bytes.empty
                      [ Bytes.of_string id;
                        Bytes.of_string (if verdict = Verifier.Clean then "\x01" else "\x02");
                        r.Report.mac ])))
  in
  ignore
    (Trace.span "merkle.fold" (fun () ->
         Merkle.root_of_leaves Ra_crypto.Algo.SHA_256 ~leaves))

let prepare ~seed =
  let reference =
    Fleet.sharded_roll_call
      (Ra_experiments.Fleet_roll.build ~devices ~seed)
      ~jobs:1 ~shards Mp.default_config
  in
  fun ~traced ->
    let fleet = Ra_experiments.Fleet_roll.build ~devices ~seed in
    let roll, win =
      Bench.window (fun () ->
          Trace.span "fleet.sharded_roll_call" (fun () ->
              Fleet.sharded_roll_call fleet ~jobs ~shards Mp.default_config))
    in
    Bench.attempt devices;
    Bench.check
      (Bytes.equal roll.Fleet.fleet_root reference.Fleet.fleet_root
      && roll.Fleet.shard_roots = reference.Fleet.shard_roots)
      "rollcall: roots differ from the jobs-1 roll call";
    Bench.check
      (roll.Fleet.tampered = reference.Fleet.tampered
      && List.length roll.Fleet.tampered = Ra_experiments.Fleet_roll.expected_tampered devices)
      "rollcall: tampered set differs (%d devices, expected %d)"
      (List.length roll.Fleet.tampered)
      (Ra_experiments.Fleet_roll.expected_tampered devices);
    let layer =
      if not traced then []
      else begin
        sample fleet;
        let s = Trace.summarize () in
        [
          ("fleet.materialize_us", Trace.mean_us s "fleet.materialize");
          ("verifier.of_device_us", Trace.mean_us s "verifier.of_device");
          ("mp.measure_us", Trace.mean_us s "mp.measure");
          ("rollcall.verify_us", Trace.mean_us s "verifier.verify");
          ("store.hit_rate", Fleet.hit_rate roll);
          ("store.hashed", float_of_int roll.Fleet.hashed);
        ]
      end
    in
    {
      Bench.items = devices;
      win;
      jobs;
      latencies_ms = [| 1e3 *. win.Bench.wall_s |];
      extra = [];
      layer;
    }
