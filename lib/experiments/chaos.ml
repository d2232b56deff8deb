open Ra_sim
open Ra_device
open Ra_core
open Ra_faults

(* Chaos harness: every scheme family runs under randomized fault plans
   (drawn deterministically from the seed), and each trial asserts the
   invariants that make faults survivable rather than fatal:

   - a benign device is never reported Tampered, no matter what the channel
     does to the traffic (corruption is caught at the frame check, not
     misread as malware);
   - the safety-critical application still meets its fire-alarm deadline;
   - after a partition heals or the device reboots, attestation completes;
   - a reboot never lets a stale pre-crash report satisfy a verifier
     (re-measurement count is bounded by crash count, and crash trials
     still end Clean). *)

type trial_outcome = {
  trial : int;
  scheme : string;
  profile : string;
  plan : string;
  completed_s : float option;
  violations : string list;
}

type summary = {
  outcomes : trial_outcome list;
  total : int;
  failed : int;
  violations : string list;
  baselines : (string * float) list;
}

let fail = Harness.fail

(* One trial's record; [run] fills in the trial index. *)
let trial_outcome ~scheme ~profile ~completed_s plan vs =
  {
    trial = 0;
    scheme;
    profile;
    plan = Faults.describe plan;
    completed_s;
    violations = Harness.to_list vs;
  }

let horizon = Timebase.s 60
let fire_at = Timebase.s 45

let mk_device ~seed ~modeled_block_bytes =
  Device.create
    {
      Device.default_config with
      Device.seed;
      block_size = 256;
      modeled_block_bytes;
    }

(* Retry budget sized for the harness's fault caps: worst case (35% loss and
   30% corruption both ways) a request-reply exchange succeeds with
   probability ~0.21, so 40 attempts leave a vanishing give-up probability
   even after a partition window burns a handful of them. *)
let rp_config ~scheme ~channel =
  {
    Reliable_protocol.default_config with
    Reliable_protocol.mp = { Mp.default_config with Mp.scheme };
    channel;
    retry_timeout = Timebase.s 2;
    max_attempts = 40;
    backoff = 1.6;
    backoff_jitter = 0.1;
    max_timeout = Timebase.s 6;
  }

(* --- on-demand schemes under Reliable_protocol -------------------------- *)

let run_reliable ~trial_seed ~scheme ~scheme_name ~profile rng =
  let plan = Faults.random_plan rng ~horizon profile in
  let device = mk_device ~seed:trial_seed ~modeled_block_bytes:(1024 * 1024) in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  Faults.install device plan;
  let app =
    App.start eng device.Device.cpu device.Device.memory
      { App.default_config with App.first_activation = Timebase.ms 100 }
  in
  App.declare_fire app ~at:fire_at;
  let result = ref None in
  Reliable_protocol.run device verifier
    (rp_config ~scheme ~channel:plan.Faults.channel)
    ~on_done:(fun r -> result := Some r)
    ();
  Engine.run ~until:horizon eng;
  App.stop app;
  Engine.run ~until:(Timebase.s 300) eng;
  let vs = Harness.violations () in
  let completed_s = ref None in
  (match !result with
  | None -> fail vs "session never reported a result"
  | Some r ->
    (match r.Reliable_protocol.verdict with
    | Some Verifier.Tampered -> fail vs "benign device reported Tampered"
    | Some Verifier.Clean ->
      completed_s :=
        Option.map Timebase.to_seconds r.Reliable_protocol.completed_at
    | None ->
      fail vs "gave up after %d attempts (%d frames corrupted)"
        r.Reliable_protocol.attempts r.Reliable_protocol.corrupted_dropped);
    let crashes = Device.crash_count device in
    if r.Reliable_protocol.measurements_run > crashes + 1 then
      fail vs "ran %d measurements for one session (%d crashes)"
        r.Reliable_protocol.measurements_run crashes;
    (match (profile, r.Reliable_protocol.completed_at, plan.Faults.crash_at) with
    | Faults.With_crash, Some at, Some crash_at when at > crash_at ->
      (* completed after the reboot: must have re-measured, the pre-crash
         cache is gone *)
      if r.Reliable_protocol.measurements_run < 1 then
        fail vs "post-crash completion without any measurement"
    | _ -> ()));
  (match App.alarm_latency app with
  | None -> fail vs "fire alarm never sounded"
  | Some l ->
    if l > Timebase.s 2 then
      fail vs "fire alarm took %s (deadline 2 s)" (Timebase.to_string l));
  trial_outcome ~scheme:scheme_name ~profile:(Faults.profile_to_string profile)
    ~completed_s:!completed_s plan vs

(* --- ERASMUS: crash resilience of the self-measurement log -------------- *)

let run_erasmus ~trial_seed ~persistent rng =
  let plan = Faults.random_plan rng ~horizon Faults.With_crash in
  let device = mk_device ~seed:trial_seed ~modeled_block_bytes:(64 * 1024) in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  Faults.install device plan;
  let era =
    Erasmus.start device
      {
        Erasmus.default_config with
        Erasmus.period = Timebase.s 2;
        capacity = 64;
        persistent_log = persistent;
      }
  in
  Engine.run ~until:horizon eng;
  Erasmus.stop era;
  Engine.run ~until:(Timebase.add horizon (Timebase.s 5)) eng;
  let audit = Erasmus.audit ~expect_from:1 verifier (Erasmus.stored era) in
  let vs = Harness.violations () in
  if audit.Erasmus.audit_tampered > 0 then
    fail vs "%d stored reports audited as Tampered" audit.Erasmus.audit_tampered;
  if audit.Erasmus.out_of_order > 0 then
    fail vs "%d reports out of order" audit.Erasmus.out_of_order;
  let crashes = Device.crash_count device in
  let gap_width = List.fold_left (fun a (lo, hi) -> a + hi - lo + 1) 0 audit.Erasmus.gaps in
  if crashes = 0 && audit.Erasmus.gaps <> [] then
    fail vs "log gap without any crash";
  if Erasmus.reports_lost_to_crash era > 0 && audit.Erasmus.gaps = [] then
    fail vs "crash wiped %d reports but the audit saw no gap"
      (Erasmus.reports_lost_to_crash era);
  if persistent && gap_width > crashes then
    (* a flash-backed log loses at most the measurement in flight per crash *)
    fail vs "persistent log lost %d counters across %d crashes" gap_width crashes;
  trial_outcome
    ~scheme:(if persistent then "erasmus(flash)" else "erasmus(ram)")
    ~profile:(Faults.profile_to_string Faults.With_crash) ~completed_s:None plan vs

(* --- SeED: prover-initiated reports over a faulty uplink ---------------- *)

let run_seed ~trial_seed ~profile rng =
  let plan = Faults.random_plan rng ~horizon profile in
  (* duplication is off: SeED's replay defence rightly flags any repeated
     counter, so a duplicate-manufacturing channel needs a dedup layer this
     trial does not model. Corruption, loss and reordering stay on. *)
  let channel_config = { plan.Faults.channel with Channel.duplicate = 0. } in
  let device = mk_device ~seed:trial_seed ~modeled_block_bytes:(64 * 1024) in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  Faults.install device plan;
  let inbox = ref [] in
  let corrupted = ref 0 in
  let uplink =
    Channel.create eng channel_config ~corrupt:Channel.flip_random_bit
      ~deliver:(fun frame ->
        match Frame.open_ frame with
        | Error _ -> incr corrupted
        | Ok payload ->
          (match Report.decode payload with
          | Ok report -> inbox := (Engine.now eng, report) :: !inbox
          | Error _ -> incr corrupted))
      ()
  in
  let mean_interval = Timebase.s 3 in
  let prover =
    Seed_ra.start device
      { Seed_ra.default_config with Seed_ra.mean_interval }
      ~send:(fun (_, report) ->
        Channel.send uplink (Frame.seal (Report.encode report)))
  in
  Engine.run ~until:horizon eng;
  Seed_ra.stop prover;
  Engine.run ~until:(Timebase.add horizon (Timebase.s 5)) eng;
  let expected =
    List.filter
      (fun t -> t <= horizon)
      (Seed_ra.schedule
         ~shared_seed:Seed_ra.default_config.Seed_ra.shared_seed ~mean_interval
         ~first_after:Timebase.zero
         ~count:(2 * (horizon / mean_interval)))
  in
  let outcome =
    Seed_ra.monitor verifier ~expected ~tolerance:(Timebase.s 2)
      (List.rev !inbox)
  in
  let vs = Harness.violations () in
  if outcome.Seed_ra.tampered > 0 then
    fail vs "%d benign reports classified Tampered" outcome.Seed_ra.tampered;
  if outcome.Seed_ra.replayed > 0 then
    fail vs "%d false replay flags on a duplicate-free channel"
      outcome.Seed_ra.replayed;
  if
    Device.crash_count device > 0
    && Seed_ra.missed_triggers prover = 0
    && outcome.Seed_ra.missing = 0 && !corrupted = 0
    && Channel.sent uplink = Channel.delivered uplink
    && Seed_ra.reports_sent prover < List.length expected
  then fail vs "reports vanished without any fault accounting for them";
  trial_outcome ~scheme:"seed" ~profile:(Faults.profile_to_string profile)
    ~completed_s:None plan vs

(* --- swarm: collective attestation under link loss ---------------------- *)

let run_swarm ~trial_seed rng =
  let plan = Faults.random_plan rng ~horizon Faults.Network_only in
  (* the swarm simulator models loss only; cap it so the spanning tree is
     likely to form at all *)
  let loss = Float.min 0.2 plan.Faults.channel.Channel.loss in
  let config = { Ra_swarm.Swarm.default_config with Ra_swarm.Swarm.seed = trial_seed; loss } in
  let r = Ra_swarm.Swarm.run config ~infected:[] in
  let vs = Harness.violations () in
  if r.Ra_swarm.Swarm.tampered > 0 then
    fail vs "%d benign nodes reported tampered" r.Ra_swarm.Swarm.tampered;
  let accounted =
    r.Ra_swarm.Swarm.healthy + r.Ra_swarm.Swarm.tampered
    + r.Ra_swarm.Swarm.unresponsive
  in
  if accounted <> config.Ra_swarm.Swarm.nodes then
    fail vs "accounting broke: %d of %d nodes" accounted config.Ra_swarm.Swarm.nodes;
  trial_outcome ~scheme:"swarm"
    ~profile:(Printf.sprintf "network-only (loss=%.2f)" loss)
    ~completed_s:None plan vs

(* --- baselines: fault-free completion time per on-demand scheme --------- *)

let baseline ~seed ~scheme ~scheme_name =
  let device = mk_device ~seed ~modeled_block_bytes:(1024 * 1024) in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  let result = ref None in
  Reliable_protocol.run device verifier
    (rp_config ~scheme ~channel:Channel.ideal)
    ~on_done:(fun r -> result := Some r)
    ();
  Engine.run eng;
  match !result with
  | Some { Reliable_protocol.completed_at = Some at; _ } ->
    (scheme_name, Timebase.to_seconds at)
  | _ -> (scheme_name, Float.nan)

let rp_schemes =
  [
    ("smart", Scheme.smart);
    ("dec-lock", Scheme.dec_lock);
    ("inc-lock", Scheme.inc_lock);
    ("smarm", Scheme.smarm);
  ]

(* ralint: allow P2 — read-only profile table indexed per trial. *)
let profiles = [| Faults.Network_only; Faults.With_partition; Faults.With_crash |]

let run ?jobs ?(seed = 42) ~trials () =
  if trials < 1 then invalid_arg "Chaos.run: trials < 1";
  let master = Prng.create ~seed in
  (* Draw every trial's generator and seed from the master in trial order,
     before any fan-out, so trial i's randomness does not depend on how
     trials interleave across domains. *)
  let draws =
    let a = Array.make trials (Prng.create ~seed:0, 0) in
    for i = 0 to trials - 1 do
      let rng = Prng.split master in
      let trial_seed = 1 + Prng.int master ~bound:0x3FFFFFFF in
      a.(i) <- (rng, trial_seed)
    done;
    a
  in
  let outcomes =
    Array.to_list
      (Ra_parallel.parallel_init ?jobs trials (fun i ->
           let rng, trial_seed = draws.(i) in
           let profile = profiles.(i mod Array.length profiles) in
           let outcome =
             match i mod 7 with
             | 0 | 1 | 2 | 3 ->
               let scheme_name, scheme = List.nth rp_schemes (i mod 7) in
               run_reliable ~trial_seed ~scheme ~scheme_name ~profile rng
             | 4 -> run_erasmus ~trial_seed ~persistent:(i mod 2 = 0) rng
             | 5 -> run_seed ~trial_seed ~profile rng
             | _ -> run_swarm ~trial_seed rng
           in
           { outcome with trial = i }))
  in
  let violations =
    List.concat_map
      (fun o ->
        List.map
          (fun v ->
            Printf.sprintf "trial %d (%s, %s): %s" o.trial o.scheme o.profile v)
          o.violations)
      outcomes
  in
  let baselines =
    Ra_parallel.parallel_list_map ?jobs
      (fun (name, scheme) -> baseline ~seed ~scheme ~scheme_name:name)
      rp_schemes
  in
  {
    outcomes;
    total = trials;
    failed =
      List.length
        (List.filter (fun (o : trial_outcome) -> o.violations <> []) outcomes);
    violations;
    baselines;
  }

let render summary =
  let by_scheme = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let runs, done_, lat_sum =
        Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt by_scheme o.scheme)
      in
      let done_, lat_sum =
        match o.completed_s with
        | Some s -> (done_ + 1, lat_sum +. s)
        | None -> (done_, lat_sum)
      in
      Hashtbl.replace by_scheme o.scheme (runs + 1, done_, lat_sum))
    summary.outcomes;
  let rows =
    List.filter_map
      (fun (name, _) ->
        match Hashtbl.find_opt by_scheme name with
        | None -> None
        | Some (runs, done_, lat_sum) ->
          let base =
            try List.assoc name summary.baselines with Not_found -> Float.nan
          in
          let mean = if done_ = 0 then Float.nan else lat_sum /. float_of_int done_ in
          Some
            [
              name;
              string_of_int runs;
              string_of_int done_;
              Printf.sprintf "%.3f s" base;
              Printf.sprintf "%.3f s" mean;
              (if Float.is_nan mean || Float.is_nan base then "-"
               else Printf.sprintf "%.1fx" (mean /. base));
            ])
      rp_schemes
  in
  let extra =
    List.filter_map
      (fun scheme ->
        let n =
          List.length (List.filter (fun o -> o.scheme = scheme) summary.outcomes)
        in
        if n = 0 then None else Some [ scheme; string_of_int n; "-"; "-"; "-"; "-" ])
      [ "erasmus(flash)"; "erasmus(ram)"; "seed"; "swarm" ]
  in
  let table =
    Tablefmt.render
      ~header:
        [ "scheme"; "trials"; "completed"; "ideal"; "mean under faults"; "overhead" ]
      (rows @ extra)
  in
  let verdict =
    if summary.violations = [] then
      Printf.sprintf "%d trials, 0 invariant violations" summary.total
    else
      Printf.sprintf "%d trials, %d FAILED:\n  %s" summary.total summary.failed
        (String.concat "\n  " summary.violations)
  in
  "Chaos — randomized faults vs every RA scheme (invariant check)\n" ^ table
  ^ "\n" ^ verdict ^ "\n"
