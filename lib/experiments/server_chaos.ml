open Ra_sim
open Ra_server

(* The end-to-end chaos gate for the control plane: seeded campaigns over
   the simulated network, each under the harsh stream-fault mix with a
   kill -9 injected mid-ingest, checked against an unkilled fault-free
   reference run of the same campaign. A trial passes only if the faulted,
   killed, restarted campaign converges to the exact state of the
   undisturbed one — same fleet root, same accepted count, same verdict
   split — and does so reproducibly (the faulted run is executed twice and
   at two --jobs values, which must agree bit for bit). *)

type trial = {
  seed : int;
  crash_step : int;
  outcome : Netsim.outcome option;
  failures : string list;
}

type report = {
  trials : trial list;
  devices : int;
  reports_per_device : int;
  capacity : int;
  other_jobs : int;
  total_shed : int;
  total_retries : int;
  total_busy : int;
  total_dead_conns : int;
}

let ok report = List.for_all (fun t -> t.failures = []) report.trials
let fail = Harness.fail

let run_trial ?jobs ~other_jobs ~devices ~reports_per_device ~capacity seed =
  let rng = Prng.create ~seed:(seed lxor 0xc4a05) in
  let crash_step = 20 + Prng.int rng ~bound:60 in
  let base =
    { Netsim.default with Netsim.devices; reports_per_device; capacity; seed }
  in
  let vs = Harness.violations () in
  let total = devices * reports_per_device in
  let faulted = { base with Netsim.crash_at = Some crash_step } in
  match Netsim.run ?jobs faulted with
  | Error e ->
      { seed; crash_step; outcome = None; failures = [ "campaign failed outright: " ^ e ] }
  | Ok outcome ->
      (* the unkilled, fault-free reference *)
      (match Netsim.run ?jobs { base with Netsim.faults = Ra_faults.Stream_faults.ideal } with
      | Error e -> fail vs "reference run failed: %s" e
      | Ok reference ->
          if not (Bytes.equal outcome.Netsim.root reference.Netsim.root) then
            fail vs "fleet root diverged from the unkilled run: %s vs %s"
              (Ra_crypto.Bytesutil.to_hex outcome.Netsim.root)
              (Ra_crypto.Bytesutil.to_hex reference.Netsim.root);
          if outcome.Netsim.counters.Wire.accepted <> reference.Netsim.counters.Wire.accepted
          then
            fail vs "accepted diverged: %d vs %d" outcome.Netsim.counters.Wire.accepted
              reference.Netsim.counters.Wire.accepted;
          if outcome.Netsim.tampered <> reference.Netsim.tampered then
            fail vs "tampered verdicts diverged: %d vs %d" outcome.Netsim.tampered
              reference.Netsim.tampered);
      if outcome.Netsim.acked <> total then
        fail vs "campaign retired %d of %d items" outcome.Netsim.acked total;
      if outcome.Netsim.restarts <> 1 then
        fail vs "expected exactly one restart, saw %d" outcome.Netsim.restarts;
      if outcome.Netsim.counters.Wire.recovered = 0 then
        fail vs "restart recovered nothing from the journal";
      (* reproducibility: same seed, same bytes — twice, and across jobs *)
      List.iter
        (function Ok _ -> () | Error m -> fail vs "%s" m)
        (Harness.compare_reruns ~signature:Netsim.signature outcome
           [
             (Harness.Same_seed, fun () -> Netsim.run ?jobs faulted);
             (Harness.Jobs other_jobs, fun () -> Netsim.run ~jobs:other_jobs faulted);
           ]);
      { seed; crash_step; outcome = Some outcome; failures = Harness.to_list vs }

let run ?jobs ?(trials = 5) ?(devices = 24) ?(reports_per_device = 4)
    ?(capacity = 8) ?(seed = 7) () =
  (* the jobs-invariance re-run must differ from the jobs count the
     campaign actually ran at, including the pool default *)
  let other_jobs =
    if Option.value jobs ~default:(Ra_parallel.default_jobs ()) = 1 then 2 else 1
  in
  let trials =
    List.init trials (fun i ->
        run_trial ?jobs ~other_jobs ~devices ~reports_per_device ~capacity
          (seed + (1000 * i)))
  in
  let total f =
    List.fold_left
      (fun a t -> match t.outcome with Some o -> a + f o | None -> a)
      0 trials
  in
  {
    trials;
    devices;
    reports_per_device;
    capacity;
    other_jobs;
    total_shed = total (fun o -> o.Netsim.counters.Wire.shed);
    total_retries = total (fun o -> o.Netsim.retries);
    total_busy = total (fun o -> o.Netsim.busy);
    total_dead_conns = total (fun o -> o.Netsim.dead_conns);
  }

let render r =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  p "server-chaos: %d trial(s), %d devices x %d reports, queue capacity %d"
    (List.length r.trials) r.devices r.reports_per_device r.capacity;
  List.iter
    (fun t ->
      p "  seed %-6d kill@%-3d %s" t.seed t.crash_step
        (if t.failures = [] then "ok" else "FAIL");
      Option.iter
        (fun o ->
          p "    accepted=%d shed=%d deduped=%d recovered=%d acked=%d retries=%d busy=%d dead-conns=%d steps=%d"
            o.Netsim.counters.Wire.accepted o.Netsim.counters.Wire.shed
            o.Netsim.counters.Wire.deduped o.Netsim.counters.Wire.recovered
            o.Netsim.acked o.Netsim.retries o.Netsim.busy o.Netsim.dead_conns
            o.Netsim.steps;
          p "    root=%s" (Ra_crypto.Bytesutil.to_hex o.Netsim.root))
        t.outcome;
      List.iter (fun f -> p "    - %s" f) t.failures)
    r.trials;
  p "  totals: shed=%d retries=%d busy=%d dead-conns=%d" r.total_shed
    r.total_retries r.total_busy r.total_dead_conns;
  p "  invariants: %s" (if ok r then "all hold" else "VIOLATED");
  Buffer.contents b
