(* Tests for the device substrate: memory + locks + journal, CPU arbiter,
   cost model calibration, and the critical application. *)

open Ra_sim
open Ra_device

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let image n = Device.firmware_image ~seed:99 ~size:n

let make_memory () = Memory.create ~image:(image 1024) ~block_size:256

(* --- Memory ------------------------------------------------------------------ *)

let test_memory_shape () =
  let m = make_memory () in
  check Alcotest.int "blocks" 4 (Memory.block_count m);
  check Alcotest.int "block size" 256 (Memory.block_size m);
  check Alcotest.int "size" 1024 (Memory.size m);
  Alcotest.check_raises "bad image"
    (Invalid_argument "Memory.create: image must be a positive multiple of block_size")
    (fun () -> ignore (Memory.create ~image:(image 1000) ~block_size:256))

let test_memory_write_read () =
  let m = make_memory () in
  let payload = Bytes.of_string "hello" in
  (match Memory.write m ~time:5 ~block:1 ~offset:10 payload with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write should succeed");
  let content = Memory.read_block m 1 in
  check Alcotest.string "written bytes visible" "hello"
    (Bytes.sub_string content 10 5);
  Alcotest.check_raises "slice exceeds block"
    (Invalid_argument "Memory.write: slice exceeds block") (fun () ->
      ignore (Memory.write m ~time:6 ~block:1 ~offset:252 payload));
  Alcotest.check_raises "block out of range"
    (Invalid_argument "Memory: block out of range") (fun () ->
      ignore (Memory.read_block m 4))

let test_memory_locking () =
  let m = make_memory () in
  Memory.lock m 2;
  check Alcotest.bool "locked" true (Memory.is_locked m 2);
  check Alcotest.int "locked count" 1 (Memory.locked_count m);
  (match Memory.write m ~time:1 ~block:2 ~offset:0 (Bytes.of_string "x") with
  | Error (Memory.Locked 2) -> ()
  | Error (Memory.Locked _) | Ok () -> Alcotest.fail "expected Locked 2");
  (* locked write must not modify *)
  check Alcotest.bytes "content untouched"
    (Bytes.sub (Memory.initial_image m) 512 256)
    (Memory.read_block m 2);
  Memory.unlock m 2;
  check Alcotest.bool "unlocked" false (Memory.is_locked m 2);
  Memory.lock_all m;
  check Alcotest.int "all locked" 4 (Memory.locked_count m);
  Memory.unlock_all m;
  check Alcotest.int "all released" 0 (Memory.locked_count m)

let test_memory_unlock_notification () =
  let m = make_memory () in
  let events = ref [] in
  Memory.subscribe_unlock m (fun b -> events := b :: !events);
  Memory.lock m 1;
  Memory.unlock m 1;
  Memory.unlock m 1;
  (* idempotent: only one edge *)
  check (Alcotest.list Alcotest.int) "one notification" [ 1 ] !events;
  Memory.lock_all m;
  Memory.unlock_all m;
  check Alcotest.int "notified for each block" 5 (List.length !events)

let test_memory_journal () =
  let m = make_memory () in
  let w time block c =
    match Memory.write m ~time ~block ~offset:0 (Bytes.make 4 c) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write failed"
  in
  w 10 0 'a';
  w 20 1 'b';
  w 30 0 'c';
  (* content_at reconstructs points in time *)
  let at t = Bytes.sub_string (Memory.block_content_at m ~time:t ~block:0) 0 4 in
  check Alcotest.string "before writes" (Bytes.sub_string (Memory.initial_image m) 0 4) (at 5);
  check Alcotest.string "after first" "aaaa" (at 15);
  check Alcotest.string "at exact instant" "aaaa" (at 10);
  check Alcotest.string "after second" "cccc" (at 35);
  let full = Memory.content_at m ~time:25 in
  check Alcotest.string "full image mid-way" "aaaa" (Bytes.sub_string full 0 4);
  check Alcotest.string "other block" "bbbb" (Bytes.sub_string full 256 4);
  check Alcotest.int "writes in (5, 25]" 2 (List.length (Memory.writes_between m 5 25));
  check Alcotest.int "writes in (10, 30]" 2 (List.length (Memory.writes_between m 10 30));
  check Alcotest.bytes "content_at now = snapshot" (Memory.snapshot m)
    (Memory.content_at m ~time:1000)

let test_memory_cow_lock () =
  let m = make_memory () in
  let frozen = Memory.read_block m 1 in
  Memory.lock_cow m 1;
  check Alcotest.bool "cow counts as locked" true (Memory.is_locked m 1);
  check Alcotest.bool "no shadow yet" false (Memory.has_shadow m 1);
  (* writes succeed but readers keep the frozen view *)
  (match Memory.write m ~time:10 ~block:1 ~offset:0 (Bytes.of_string "diverted") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "cow write should succeed");
  check Alcotest.bool "shadow exists" true (Memory.has_shadow m 1);
  check Alcotest.bytes "reader sees frozen content" frozen (Memory.read_block m 1);
  check Alcotest.int "nothing journaled during the lock" 0
    (List.length (Memory.writes_between m 0 100));
  (* second write into the same shadow *)
  (match Memory.write m ~time:20 ~block:1 ~offset:8 (Bytes.of_string "!") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "second cow write should succeed");
  (* release merges, journaled at the release time *)
  let notified = ref [] in
  Memory.subscribe_unlock m (fun b -> notified := b :: !notified);
  Memory.unlock ~time:50 m 1;
  check Alcotest.string "merged content visible" "diverted!"
    (Bytes.sub_string (Memory.read_block m 1) 0 9);
  check (Alcotest.list Alcotest.int) "unlock notified" [ 1 ] !notified;
  (match Memory.writes_between m 0 100 with
  | [ (50, 1) ] -> ()
  | _ -> Alcotest.fail "merge should journal exactly once at release time");
  check Alcotest.bytes "content before release time is frozen" frozen
    (Memory.block_content_at m ~time:49 ~block:1)

let test_memory_cow_clean_release () =
  let m = make_memory () in
  Memory.lock_all_cow m;
  check Alcotest.int "all cow-locked" 4 (Memory.locked_count m);
  Memory.unlock_all ~time:5 m;
  check Alcotest.int "no journal entries without shadows" 0
    (List.length (Memory.writes_between m 0 100))

(* Regression: releasing a cow lock with a pending shadow used to default
   to time:0, journaling the merge at virtual time 0 and corrupting every
   temporal-consistency reconstruction after it. It must now demand an
   explicit release time. *)
let test_memory_unlock_requires_time_with_shadow () =
  let m = make_memory () in
  Memory.lock_cow m 2;
  (match Memory.write m ~time:10 ~block:2 ~offset:0 (Bytes.of_string "shadowed") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "cow write should succeed");
  Alcotest.check_raises "unlock without ~time raises"
    (Invalid_argument
       "Memory.unlock: releasing a cow lock with a pending shadow requires \
        ~time")
    (fun () -> Memory.unlock m 2);
  (* the rejected release must leave the lock and shadow untouched *)
  check Alcotest.bool "still locked" true (Memory.is_locked m 2);
  check Alcotest.bool "shadow retained" true (Memory.has_shadow m 2);
  Memory.unlock ~time:30 m 2;
  (match Memory.writes_between m 0 100 with
  | [ (30, 2) ] -> ()
  | _ -> Alcotest.fail "merge should journal at the explicit release time");
  (* shadow-free cow locks and plain locks still release without a time *)
  Memory.lock_cow m 3;
  Memory.unlock m 3;
  Memory.lock m 1;
  Memory.unlock m 1;
  check Alcotest.int "all released" 0 (Memory.locked_count m)

let test_memory_versions () =
  let m = make_memory () in
  check Alcotest.int "fresh block at version 0" 0 (Memory.version m 1);
  (match Memory.write m ~time:5 ~block:1 ~offset:0 (Bytes.of_string "x") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write should succeed");
  check Alcotest.int "write bumps" 1 (Memory.version m 1);
  check Alcotest.int "other blocks untouched" 0 (Memory.version m 2);
  (* rejected write on a hard lock must not bump *)
  Memory.lock m 1;
  (match Memory.write m ~time:6 ~block:1 ~offset:0 (Bytes.of_string "y") with
  | Error (Memory.Locked _) -> ()
  | Ok () -> Alcotest.fail "locked write should fail");
  check Alcotest.int "rejected write does not bump" 1 (Memory.version m 1);
  Memory.unlock m 1;
  (* diverted cow writes bump only at merge: readers see frozen bytes, so
     the version (the cache key) must stay frozen with them *)
  Memory.lock_cow m 1;
  (match Memory.write m ~time:10 ~block:1 ~offset:0 (Bytes.of_string "z") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "cow write should succeed");
  check Alcotest.int "diverted write does not bump" 1 (Memory.version m 1);
  Memory.unlock ~time:20 m 1;
  check Alcotest.int "merge bumps once" 2 (Memory.version m 1);
  (* with_block exposes the live bytes without copying *)
  Memory.with_block m 1 (fun content ->
      check Alcotest.char "live view" 'z' (Bytes.get content 0))

let prop_journal_replay =
  QCheck.Test.make ~name:"content_at replays any prefix" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 0 3) (int_range 0 255)))
    (fun writes ->
      let m = make_memory () in
      let snapshots =
        List.mapi
          (fun i (block, v) ->
            let time = (i + 1) * 10 in
            (match
               Memory.write m ~time ~block ~offset:0 (Bytes.make 8 (Char.chr v))
             with
            | Ok () -> ()
            | Error _ -> assert false);
            (time, Memory.snapshot m))
          writes
      in
      List.for_all
        (fun (time, snap) -> Bytes.equal snap (Memory.content_at m ~time))
        snapshots)

(* --- Cpu --------------------------------------------------------------------- *)

let test_cpu_fifo_same_priority () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let log = ref [] in
  let submit name =
    ignore
      (Cpu.submit cpu ~name ~priority:1 ~duration:(Timebase.ms 10)
         ~on_complete:(fun () -> log := name :: !log)
         ())
  in
  submit "a";
  submit "b";
  submit "c";
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "fifo" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "clock = total work" (Timebase.ms 30) (Engine.now eng)

let test_cpu_preemption () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let finish = ref [] in
  ignore
    (Cpu.submit cpu ~name:"low" ~priority:1 ~duration:(Timebase.ms 100)
       ~on_complete:(fun () -> finish := ("low", Engine.now eng) :: !finish)
       ());
  ignore
    (Engine.schedule eng ~at:(Timebase.ms 30) (fun _ ->
         ignore
           (Cpu.submit cpu ~name:"high" ~priority:5 ~duration:(Timebase.ms 20)
              ~on_complete:(fun () -> finish := ("high", Engine.now eng) :: !finish)
              ())));
  Engine.run eng;
  (match List.rev !finish with
  | [ ("high", t_high); ("low", t_low) ] ->
    check Alcotest.int "high finishes at 50ms" (Timebase.ms 50) t_high;
    check Alcotest.int "low resumes and finishes at 120ms" (Timebase.ms 120) t_low
  | _ -> Alcotest.fail "unexpected completion order");
  check Alcotest.int "low busy time" (Timebase.ms 100) (Cpu.busy_ns cpu ~name:"low");
  check Alcotest.int "high busy time" (Timebase.ms 20) (Cpu.busy_ns cpu ~name:"high");
  check Alcotest.int "total busy" (Timebase.ms 120) (Cpu.total_busy_ns cpu)

let test_cpu_atomic_not_preempted () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let finish = ref [] in
  ignore
    (Cpu.submit cpu ~atomic:true ~name:"atomic" ~priority:1
       ~duration:(Timebase.ms 100)
       ~on_complete:(fun () -> finish := ("atomic", Engine.now eng) :: !finish)
       ());
  ignore
    (Engine.schedule eng ~at:(Timebase.ms 30) (fun _ ->
         ignore
           (Cpu.submit cpu ~name:"high" ~priority:5 ~duration:(Timebase.ms 20)
              ~on_complete:(fun () -> finish := ("high", Engine.now eng) :: !finish)
              ())));
  Engine.run eng;
  match List.rev !finish with
  | [ ("atomic", t_atomic); ("high", t_high) ] ->
    check Alcotest.int "atomic runs to completion" (Timebase.ms 100) t_atomic;
    check Alcotest.int "high deferred until after" (Timebase.ms 120) t_high
  | _ -> Alcotest.fail "atomic job should not be preempted"

let test_cpu_cancel () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let fired = ref false in
  let job =
    Cpu.submit cpu ~name:"victim" ~priority:1 ~duration:(Timebase.ms 10)
      ~on_complete:(fun () -> fired := true)
      ()
  in
  Cpu.cancel cpu job;
  Engine.run eng;
  check Alcotest.bool "cancelled job silent" false !fired;
  check Alcotest.bool "not complete" false (Cpu.is_complete job)

let test_cpu_zero_duration () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let fired = ref false in
  ignore
    (Cpu.submit cpu ~name:"instant" ~priority:1 ~duration:Timebase.zero
       ~on_complete:(fun () -> fired := true)
       ());
  Engine.run eng;
  check Alcotest.bool "zero-duration job completes" true !fired

let test_cpu_running () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  check Alcotest.bool "idle" true (Cpu.running cpu = None);
  ignore
    (Cpu.submit cpu ~name:"job" ~priority:3 ~duration:(Timebase.ms 5)
       ~on_complete:(fun () -> ())
       ());
  check Alcotest.bool "running visible" true (Cpu.running cpu = Some ("job", 3));
  Engine.run eng;
  check Alcotest.bool "idle again" true (Cpu.running cpu = None)

(* The arbiter conserves work: with any mix of priorities and durations and
   no idling gaps, total busy time equals the sum of demands and the last
   completion lands exactly at that sum. *)
let prop_cpu_work_conservation =
  QCheck.Test.make ~name:"cpu conserves work" ~count:100
    QCheck.(list_of_size Gen.(1 -- 12) (pair (int_range 1 5) (int_range 1 2000)))
    (fun jobs ->
      let eng = Engine.create () in
      let cpu = Cpu.create eng in
      let total = List.fold_left (fun acc (_, d) -> acc + d) 0 jobs in
      let completions = ref 0 in
      List.iter
        (fun (priority, duration) ->
          ignore
            (Cpu.submit cpu ~name:"j" ~priority ~duration
               ~on_complete:(fun () -> incr completions)
               ()))
        jobs;
      Engine.run eng;
      !completions = List.length jobs
      && Cpu.total_busy_ns cpu = total
      && Engine.now eng = total)

(* Under copy-on-write, the merged block equals exactly what a plain write
   sequence would have produced. *)
let prop_cow_merge_equals_plain =
  QCheck.Test.make ~name:"cow merge = plain writes" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (pair (int_range 0 248) (string_of_size Gen.(1 -- 8))))
    (fun writes ->
      let plain = make_memory () in
      let cow = make_memory () in
      Memory.lock_cow cow 1;
      List.iteri
        (fun i (offset, data) ->
          let payload = Bytes.of_string data in
          (match Memory.write plain ~time:i ~block:1 ~offset payload with
          | Ok () -> ()
          | Error _ -> assert false);
          match Memory.write cow ~time:i ~block:1 ~offset payload with
          | Ok () -> ()
          | Error _ -> assert false)
        writes;
      Memory.unlock ~time:1000 cow 1;
      Bytes.equal (Memory.read_block plain 1) (Memory.read_block cow 1))

(* --- Cost model ----------------------------------------------------------------- *)

let test_cost_model_anchors () =
  let cost = Cost_model.odroid_xu4 in
  let t100 =
    Timebase.to_seconds
      (Cost_model.hash_time cost Ra_crypto.Algo.SHA_256 ~bytes:(100 * 1024 * 1024))
  in
  check Alcotest.bool "paper anchor: ~0.9 s per 100 MB" true (t100 > 0.8 && t100 < 1.0);
  let t2g =
    Timebase.to_seconds
      (Cost_model.hash_time cost Ra_crypto.Algo.BLAKE2b ~bytes:(2 * 1024 * 1024 * 1024))
  in
  check Alcotest.bool "paper anchor: ~14 s per 2 GB" true (t2g > 13. && t2g < 16.)

let test_cost_model_monotonic () =
  let cost = Cost_model.odroid_xu4 in
  List.iter
    (fun hash ->
      let t1 = Cost_model.hash_time cost hash ~bytes:1_000_000 in
      let t2 = Cost_model.hash_time cost hash ~bytes:2_000_000 in
      check Alcotest.bool "monotonic in size" true (t2 > t1))
    Ra_crypto.Algo.all_hashes

let test_crossover () =
  let cost = Cost_model.odroid_xu4 in
  let bytes = Cost_model.crossover_bytes cost Ra_crypto.Algo.SHA_256 Cost_model.RSA_2048 in
  (* hashing that many bytes should cost about one signature *)
  let hash_cost = Cost_model.hash_time_raw cost Ra_crypto.Algo.SHA_256 ~bytes in
  let sign_cost = Cost_model.sign_time cost Cost_model.RSA_2048 in
  let ratio = Timebase.to_seconds hash_cost /. Timebase.to_seconds sign_cost in
  check Alcotest.bool "crossover balances costs" true (ratio > 0.95 && ratio < 1.05)

let test_signature_names () =
  List.iter
    (fun alg ->
      match Cost_model.signature_of_name (Cost_model.signature_name alg) with
      | Some alg' -> check Alcotest.bool "roundtrip" true (alg = alg')
      | None -> Alcotest.fail "name roundtrip failed")
    Cost_model.all_signatures

let test_measurement_time_composition () =
  let cost = Cost_model.odroid_xu4 in
  let plain = Cost_model.measurement_time cost Ra_crypto.Algo.SHA_256 ~bytes:1000 () in
  let signed =
    Cost_model.measurement_time cost Ra_crypto.Algo.SHA_256
      ~signature:Cost_model.ECDSA_256 ~bytes:1000 ()
  in
  check Alcotest.int "signature adds its cost"
    (Timebase.add plain (Cost_model.sign_time cost Cost_model.ECDSA_256))
    signed

(* --- Device ------------------------------------------------------------------------ *)

let test_device_create () =
  let device = Device.create Device.default_config in
  check Alcotest.int "blocks" 64 (Memory.block_count device.Device.memory);
  check Alcotest.int "attested bytes" (1024 * 1024 * 1024) (Device.attested_bytes device);
  check Alcotest.bool "no data blocks by default" false (Device.is_data_block device 0)

let test_device_firmware_deterministic () =
  let a = Device.firmware_image ~seed:5 ~size:512 in
  let b = Device.firmware_image ~seed:5 ~size:512 in
  let c = Device.firmware_image ~seed:6 ~size:512 in
  check Alcotest.bytes "same seed same image" a b;
  check Alcotest.bool "different seed different image" false (Bytes.equal a c)

(* Every fleet, world and experiment derives its expected image from this
   generator, so its output is pinned, not just its determinism. *)
let test_device_firmware_known_answer () =
  check Alcotest.string "sha256 of firmware_image ~seed:1 ~size:4096"
    "1889520b68cd30419be28f1c0d3b7e55953b7c99c991b2464952102f65565a53"
    (Ra_crypto.Bytesutil.to_hex
       (Ra_crypto.Sha256.digest (Device.firmware_image ~seed:1 ~size:4096)))

let test_device_validation () =
  Alcotest.check_raises "data block out of range"
    (Invalid_argument "Device.create: data block out of range") (fun () ->
      ignore (Device.create { Device.default_config with Device.data_blocks = [ 64 ] }));
  Alcotest.check_raises "release image of the wrong size"
    (Invalid_argument "Device.create: image size differs from blocks * block_size")
    (fun () -> ignore (Device.create ~image:(image 512) Device.default_config))

(* --- App --------------------------------------------------------------------------- *)

let app_fixture ?(data_blocks = []) ?(period = Timebase.ms 100) () =
  let device =
    Device.create { Device.default_config with Device.block_size = 256; data_blocks }
  in
  let config =
    {
      App.default_config with
      App.period;
      execution = Timebase.ms 2;
      deadline = Some (Timebase.ms 50);
      data_blocks;
      write_bytes = 16;
      first_activation = Timebase.zero;
    }
  in
  (device, App.start device.Device.engine device.Device.cpu device.Device.memory config)

let test_app_periodic () =
  let device, app = app_fixture () in
  Engine.run ~until:(Timebase.ms 950) device.Device.engine;
  App.stop app;
  Engine.run ~until:(Timebase.s 2) device.Device.engine;
  check Alcotest.int "10 activations in 950 ms at 100 ms period" 10 (App.activations app);
  check Alcotest.int "all completed" 10 (App.completions app);
  check Alcotest.int "no deadline misses unloaded" 0 (App.deadline_misses app);
  check Alcotest.bool "latency = execution time" true
    (Stats.max_value (App.latencies app) < 0.003)

let test_app_blocked_by_lock () =
  let device, app = app_fixture ~data_blocks:[ 2 ] () in
  let mem = device.Device.memory in
  Memory.lock mem 2;
  ignore
    (Engine.schedule device.Device.engine ~at:(Timebase.ms 210) (fun _ ->
         Memory.unlock mem 2));
  Engine.run ~until:(Timebase.ms 450) device.Device.engine;
  App.stop app;
  Engine.run ~until:(Timebase.s 1) device.Device.engine;
  (* activations at 0, 100, 200 stalled until 210; deadline misses expected *)
  check Alcotest.bool "blocked time accrued" true (App.blocked_ns app > 0);
  check Alcotest.bool "deadline misses recorded" true (App.deadline_misses app >= 2)

let test_app_fire_alarm () =
  let device, app = app_fixture () in
  App.declare_fire app ~at:(Timebase.ms 250);
  Engine.run ~until:(Timebase.ms 600) device.Device.engine;
  App.stop app;
  Engine.run ~until:(Timebase.s 1) device.Device.engine;
  match App.alarm_latency app with
  | None -> Alcotest.fail "alarm never raised"
  | Some latency ->
    (* next activation at 300 ms + 2 ms compute *)
    check Alcotest.int "alarm at next activation" (Timebase.ms 52) latency

(* --- Taskset ----------------------------------------------------------------------- *)

let prop_uunifast_sums =
  qtest
    (QCheck.Test.make ~name:"uunifast sums to target and stays positive" ~count:200
       QCheck.(triple small_int (int_range 1 12) (int_range 1 100))
       (fun (seed, tasks, pct) ->
         let total = float_of_int pct /. 100. in
         let rng = Prng.create ~seed in
         let u = Taskset.uunifast rng ~tasks ~total_utilization:total in
         let sum = Array.fold_left ( +. ) 0. u in
         Array.length u = tasks
         && Float.abs (sum -. total) < 1e-9
         && Array.for_all (fun x -> x >= 0.) u))

let test_taskset_generate () =
  let rng = Prng.create ~seed:12 in
  let tasks = Taskset.generate rng ~tasks:6 ~total_utilization:0.5 () in
  check Alcotest.int "six tasks" 6 (List.length tasks);
  List.iter
    (fun t ->
      check Alcotest.bool "execution within period" true
        (t.Taskset.execution >= 1 && t.Taskset.execution <= t.Taskset.period);
      check Alcotest.bool "period in range" true
        (t.Taskset.period >= Timebase.ms 50 && t.Taskset.period <= Timebase.s 2))
    tasks;
  (* rate-monotonic: sorting by priority descending gives ascending periods *)
  let by_priority =
    List.sort (fun a b -> Int.compare b.Taskset.priority a.Taskset.priority) tasks
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Taskset.period <= b.Taskset.period && monotone rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "rate-monotonic priorities" true (monotone by_priority);
  Alcotest.check_raises "utilization range"
    (Invalid_argument "Taskset.uunifast: utilization out of (0, 1]") (fun () ->
      ignore (Taskset.uunifast rng ~tasks:3 ~total_utilization:1.5))

let test_taskset_atomic_vs_interruptible () =
  let rng = Prng.create ~seed:13 in
  let tasks = Taskset.generate rng ~tasks:5 ~total_utilization:0.3 () in
  let run scheme_atomic =
    Taskset.run_under_attestation ~seed:13 ~tasks ~scheme_atomic
      ~horizon:(Timebase.s 20) ~attested_bytes:(1024 * 1024 * 1024)
  in
  let atomic = run true in
  let interruptible = run false in
  check Alcotest.bool "atomic blackout misses deadlines" true
    (atomic.Taskset.deadline_misses > 10);
  check Alcotest.int "interruptible misses none" 0
    interruptible.Taskset.deadline_misses;
  check Alcotest.bool "worst latency contrast" true
    (atomic.Taskset.worst_latency_s > 5. *. interruptible.Taskset.worst_latency_s);
  check Alcotest.bool "work completed either way" true
    (interruptible.Taskset.completions > 50)

let () =
  Alcotest.run "ra_device"
    [
      ( "memory",
        [
          Alcotest.test_case "shape" `Quick test_memory_shape;
          Alcotest.test_case "write/read" `Quick test_memory_write_read;
          Alcotest.test_case "locking" `Quick test_memory_locking;
          Alcotest.test_case "unlock notification" `Quick test_memory_unlock_notification;
          Alcotest.test_case "journal" `Quick test_memory_journal;
          Alcotest.test_case "copy-on-write lock" `Quick test_memory_cow_lock;
          Alcotest.test_case "cow clean release" `Quick test_memory_cow_clean_release;
          Alcotest.test_case "unlock with shadow requires time" `Quick
            test_memory_unlock_requires_time_with_shadow;
          Alcotest.test_case "block versions" `Quick test_memory_versions;
          qtest prop_journal_replay;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "fifo" `Quick test_cpu_fifo_same_priority;
          Alcotest.test_case "preemption" `Quick test_cpu_preemption;
          Alcotest.test_case "atomic" `Quick test_cpu_atomic_not_preempted;
          Alcotest.test_case "cancel" `Quick test_cpu_cancel;
          Alcotest.test_case "zero duration" `Quick test_cpu_zero_duration;
          Alcotest.test_case "running" `Quick test_cpu_running;
          qtest prop_cpu_work_conservation;
          qtest prop_cow_merge_equals_plain;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "paper anchors" `Quick test_cost_model_anchors;
          Alcotest.test_case "monotonicity" `Quick test_cost_model_monotonic;
          Alcotest.test_case "crossover" `Quick test_crossover;
          Alcotest.test_case "signature names" `Quick test_signature_names;
          Alcotest.test_case "composition" `Quick test_measurement_time_composition;
        ] );
      ( "device",
        [
          Alcotest.test_case "create" `Quick test_device_create;
          Alcotest.test_case "deterministic firmware" `Quick test_device_firmware_deterministic;
          Alcotest.test_case "firmware known answer" `Quick test_device_firmware_known_answer;
          Alcotest.test_case "validation" `Quick test_device_validation;
        ] );
      ( "app",
        [
          Alcotest.test_case "periodic" `Quick test_app_periodic;
          Alcotest.test_case "blocked by lock" `Quick test_app_blocked_by_lock;
          Alcotest.test_case "fire alarm" `Quick test_app_fire_alarm;
        ] );
      ( "taskset",
        [
          prop_uunifast_sums;
          Alcotest.test_case "generate" `Quick test_taskset_generate;
          Alcotest.test_case "atomic vs interruptible" `Quick
            test_taskset_atomic_vs_interruptible;
        ] );
    ]
