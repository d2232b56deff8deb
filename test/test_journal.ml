(* Tests for the write-ahead journal: record framing and torn-tail
   truncation, the fault-injecting in-memory disk, crash-consistent
   snapshots, supervisor state serialization, and the crash/resume/replay
   loop over a recorded fleet-chaos campaign. *)

open Ra_journal
module Prng = Ra_sim.Prng
module Supervisor = Ra_supervisor.Supervisor
module Fleet_chaos = Ra_experiments.Fleet_chaos
module Fleet_roll = Ra_experiments.Fleet_roll

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- event codec --------------------------------------------------------- *)

let arb_event =
  let open QCheck in
  let value =
    oneof
      [
        map (fun i -> Event.I i) int;
        map (fun s -> Event.S s) string;
        map (fun s -> Event.B (Bytes.of_string s)) string;
      ]
  in
  map
    (fun (tag, fields) -> Event.make tag fields)
    (pair (string_of_size (Gen.int_bound 12)) (small_list (pair string value)))

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event encode/decode round trip" ~count:500 arb_event
    (fun e ->
      match Event.decode (Event.encode e) with
      | Ok e' -> Event.equal e e'
      | Error _ -> false)

(* --- WAL framing --------------------------------------------------------- *)

let encode_log payloads =
  let b = Buffer.create 256 in
  List.iteri
    (fun i p -> Buffer.add_bytes b (Wal.encode ~seq:(i + 1) (Bytes.of_string p)))
    payloads;
  Buffer.to_bytes b

let test_wal_roundtrip () =
  let payloads = [ "alpha"; ""; "gamma with a longer payload" ] in
  let scan = Wal.scan (encode_log payloads) in
  check Alcotest.(option string) "clean" None scan.Wal.damage;
  check
    Alcotest.(list string)
    "payloads" payloads
    (List.map Bytes.to_string scan.Wal.records)

(* Cutting the log at any byte boundary loses at most the record the cut
   lands in — every fully-written record before the cut survives. *)
let prop_wal_torn_tail =
  QCheck.Test.make ~name:"torn tail truncates to a record boundary" ~count:300
    QCheck.(pair (small_list (string_of_size (Gen.int_bound 20))) (int_bound 1000))
    (fun (payloads, cut) ->
      let log = encode_log payloads in
      let cut = min cut (Bytes.length log) in
      let scan = Wal.scan (Bytes.sub log 0 cut) in
      let n = List.length scan.Wal.records in
      (* accepted records are exactly the original prefix *)
      List.for_all2
        (fun a b -> a = Bytes.to_string b)
        (List.filteri (fun i _ -> i < n) payloads)
        scan.Wal.records
      && scan.Wal.good_bytes <= cut
      && (cut = Bytes.length log || scan.Wal.damage <> None
         || scan.Wal.good_bytes = cut))

let test_wal_duplicated_tail_rejected () =
  let log = encode_log [ "one"; "two" ] in
  let last = Wal.encode ~seq:2 (Bytes.of_string "two") in
  (* a crash re-appends the tail record: CRC is fine, seq repeats *)
  let dup = Bytes.cat log last in
  let scan = Wal.scan dup in
  check Alcotest.int "only the original records" 2 (List.length scan.Wal.records);
  check Alcotest.bool "damage reported" true (scan.Wal.damage <> None)

let test_wal_corrupt_middle () =
  let log = encode_log [ "aaaa"; "bbbb"; "cccc" ] in
  Bytes.set log 20 '\xff';
  (* inside some record *)
  let scan = Wal.scan log in
  check Alcotest.bool "damage reported" true (scan.Wal.damage <> None);
  check Alcotest.bool "prefix only" true (List.length scan.Wal.records < 3)

(* One flipped bit anywhere in the log costs exactly the record it lands
   in and everything after it: the scan returns the intact prefix,
   reports damage, and never a payload that differs from what was
   written. *)
let prop_wal_bit_flip_truncates =
  QCheck.Test.make ~name:"wal bit flip keeps the intact prefix" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6) (string_of_size (Gen.int_bound 20)))
        (int_bound 1_000_000))
    (fun (payloads, bit) ->
      let log = encode_log payloads in
      let bit = bit mod (8 * Bytes.length log) in
      let byte = bit / 8 in
      Bytes.set log byte
        (Char.chr (Char.code (Bytes.get log byte) lxor (1 lsl (bit mod 8))));
      (* index of the record holding the flipped byte *)
      let rec hit i start = function
        | [] -> i
        | p :: rest ->
          let stop = start + Bytes.length (Wal.encode ~seq:(i + 1) (Bytes.of_string p)) in
          if byte < stop then i else hit (i + 1) stop rest
      in
      let k = hit 0 0 payloads in
      let scan = Wal.scan log in
      scan.Wal.damage <> None
      && List.map Bytes.to_string scan.Wal.records
         = List.filteri (fun i _ -> i < k) payloads)

(* A length field past the 1 GiB cap is damage in its own right: the scan
   must not wait for (or allocate) the bytes it claims. *)
let test_wal_implausible_length () =
  let log = encode_log [ "one"; "two" ] in
  let second = Bytes.length (Wal.encode ~seq:1 (Bytes.of_string "one")) in
  Bytes.set log (second + 6) '\x80';
  let scan = Wal.scan log in
  check Alcotest.int "first record kept" 1 (List.length scan.Wal.records);
  check
    Alcotest.(option string)
    "damage"
    (Some (Printf.sprintf "implausible record length %d at offset %d" 0x80000003 second))
    scan.Wal.damage

(* --- journal over the fault-injecting disk ------------------------------- *)

let ev i = Event.make "tick" [ ("n", Event.I i) ]

(* Acknowledged (committed) records survive any crash; recovery yields a
   contiguous prefix of what was appended, no less than what was
   committed, and replays to the same events. *)
let prop_crash_never_loses_acknowledged =
  QCheck.Test.make ~name:"crash never loses an acknowledged record" ~count:200
    QCheck.(pair (int_bound 60) (pair (int_bound 59) int))
    (fun (total, (committed_at, crash_seed)) ->
      let total = max 1 total in
      let committed_at = min committed_at total in
      let store = Disk.Mem.create () in
      let disk = Disk.Mem.disk store in
      let j = Journal.create ~snapshot_every:1000 disk in
      for i = 1 to total do
        Journal.append j (ev i);
        if i = committed_at then Journal.commit j
      done;
      Disk.Mem.crash ~rng:(Prng.create ~seed:crash_seed) store;
      match Journal.recover disk with
      | Error _ -> false
      | Ok r ->
        let n = Array.length r.Journal.events in
        n >= committed_at && n <= total
        && Array.for_all Fun.id
             (Array.mapi (fun i e -> Event.equal e (ev (i + 1))) r.Journal.events))

(* A snapshot whose rename the crash undoes must fall back cleanly to the
   previous snapshot (or none), never to a half-written file. *)
let prop_snapshot_power_loss =
  QCheck.Test.make ~name:"power loss mid-snapshot falls back" ~count:200
    QCheck.int (fun crash_seed ->
      let store = Disk.Mem.create () in
      let disk = Disk.Mem.disk store in
      let j = Journal.create ~snapshot_every:1 disk in
      let state n = Bytes.of_string (Printf.sprintf "state-%d" n) in
      for round = 1 to 3 do
        Journal.append j (ev round);
        Journal.commit j;
        Journal.snapshot j ~round ~state:(state round)
      done;
      Disk.Mem.crash ~rng:(Prng.create ~seed:crash_seed) store;
      match Journal.recover disk with
      | Error _ -> false
      | Ok r -> (
        match r.Journal.snapshot with
        | None -> true
        | Some (round, covered, s) ->
          round >= 1 && round <= 3
          && Bytes.equal s (state round)
          && covered <= Array.length r.Journal.events))

let test_journal_resume_truncates () =
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let j = Journal.create disk in
  for i = 1 to 5 do
    Journal.append j (ev i)
  done;
  Journal.commit j;
  (* two uncommitted records past the consistency point, plus a torn tail *)
  Journal.append j (ev 6);
  Journal.append j (ev 7);
  disk.Disk.append Journal.wal_file (Bytes.of_string "RJ\x00");
  let r = Result.get_ok (Journal.recover disk) in
  check Alcotest.int "recovered through the intact records" 7
    (Array.length r.Journal.events);
  check Alcotest.bool "torn tail reported" true (r.Journal.damage <> None);
  let j2 = Journal.resume disk r ~keep:5 in
  Journal.append j2 (ev 6);
  Journal.commit j2;
  let r2 = Result.get_ok (Journal.recover disk) in
  check Alcotest.(option string) "resumed log clean" None r2.Journal.damage;
  check Alcotest.int "5 kept + 1 new" 6 (Array.length r2.Journal.events);
  check Alcotest.bool "seq continued" true
    (Event.equal r2.Journal.events.(5) (ev 6))

let test_verifier_divergence () =
  let recorded = [| ev 1; ev 2; ev 3 |] in
  let v = Journal.verifier recorded in
  Journal.append v (ev 1);
  Journal.append v (ev 99);
  check Alcotest.bool "divergence detected" true
    (Result.is_error (Journal.verified v));
  let v2 = Journal.verifier recorded in
  Array.iter (Journal.append v2) recorded;
  check Alcotest.bool "clean replay verifies" true
    (Result.is_ok (Journal.verified v2))

(* --- prng state ---------------------------------------------------------- *)

let test_prng_state_roundtrip () =
  let g = Prng.create ~seed:42 in
  for _ = 1 to 17 do
    ignore (Prng.bits64 g)
  done;
  let saved = Prng.to_bytes g in
  let expected = List.init 8 (fun _ -> Prng.bits64 g) in
  let g2 = Prng.create ~seed:0 in
  Prng.set_bytes g2 saved;
  let got = List.init 8 (fun _ -> Prng.bits64 g2) in
  check Alcotest.bool "same stream after restore" true (expected = got)

(* --- supervisor state + crash/resume/replay ------------------------------ *)

(* Small but fully chaotic fleet: 30 devices cover every fault kind. *)
let devices = 30
let seed = 11
let max_rounds = 20

let test_supervisor_serialize_load_roundtrip () =
  let r = Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds () in
  check Alcotest.(list string) "chaos invariants" [] r.Fleet_chaos.violations;
  (* a second identical world, loaded from the first one's image *)
  let r2 = Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds () in
  check Alcotest.string "identical campaigns" r.Fleet_chaos.report.Supervisor.counter_digest
    r2.Fleet_chaos.report.Supervisor.counter_digest

let kill_resume_matches ~record_jobs ~resume_jobs ~kill_at_round =
  let reference = Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds () in
  check Alcotest.(list string) "reference invariants" []
    reference.Fleet_chaos.violations;
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let killed =
    Fleet_chaos.record_killed ~disk ~devices ~seed ~jobs:record_jobs ~max_rounds
      ~kill_at_round ()
  in
  check Alcotest.bool "killed mid-campaign" true killed;
  match Fleet_chaos.resume ~disk ~jobs:resume_jobs () with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok resumed ->
    check Alcotest.(list string) "resumed invariants" []
      resumed.Fleet_chaos.violations;
    check Alcotest.string "bit-identical digest"
      reference.Fleet_chaos.report.Supervisor.counter_digest
      resumed.Fleet_chaos.report.Supervisor.counter_digest;
    check Alcotest.int "same detection count"
      (List.length reference.Fleet_chaos.report.Supervisor.detections)
      (List.length resumed.Fleet_chaos.report.Supervisor.detections);
    (* the finished journal replays bit-identically at any jobs value *)
    (match Fleet_chaos.replay ~disk ~jobs:1 () with
    | Error e -> Alcotest.failf "replay failed: %s" e
    | Ok replayed ->
      check Alcotest.string "replay digest"
        reference.Fleet_chaos.report.Supervisor.counter_digest
        replayed.Fleet_chaos.report.Supervisor.counter_digest)

let test_kill_resume_jobs1 () =
  kill_resume_matches ~record_jobs:1 ~resume_jobs:1 ~kill_at_round:5

let test_kill_resume_jobs_mixed () =
  (* recorded under parallel execution, resumed sequentially: the journal
     and the continuation must not care *)
  kill_resume_matches ~record_jobs:2 ~resume_jobs:1 ~kill_at_round:7

let test_resume_refuses_garbage () =
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  check Alcotest.bool "no journal" true
    (Result.is_error (Fleet_chaos.resume ~disk ()));
  disk.Disk.write Journal.wal_file (Bytes.of_string "not a journal at all");
  disk.Disk.sync Journal.wal_file;
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Fleet_chaos.resume ~disk ()))

(* Recovery of a corrupted journal must never materialize an illegal
   health edge: flip payload bytes at random and require that recovery
   plus state reconstruction either fails cleanly or yields a state whose
   every history chains legally (Supervisor.load re-validates). *)
let prop_corrupt_journal_never_illegal_edge =
  QCheck.Test.make ~name:"corrupted journal never yields an illegal edge"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun flip_seed ->
      let store = Disk.Mem.create () in
      let disk = Disk.Mem.disk store in
      let killed =
        Fleet_chaos.record_killed ~disk ~devices ~seed ~jobs:1 ~max_rounds
          ~kill_at_round:5 ()
      in
      let rng = Prng.create ~seed:flip_seed in
      (match disk.Disk.read Journal.wal_file with
      | Some buf when Bytes.length buf > 0 ->
        for _ = 0 to 3 do
          let i = Prng.int rng ~bound:(Bytes.length buf) in
          Bytes.set buf i (Char.chr (Prng.int rng ~bound:256))
        done;
        disk.Disk.write Journal.wal_file buf;
        disk.Disk.sync Journal.wal_file
      | _ -> ());
      killed
      &&
      match Fleet_chaos.resume ~disk () with
      | Error _ -> true (* clean refusal is a correct outcome *)
      | Ok r ->
        (* if it does resume (corruption landed past the CRC-accepted
           prefix), the campaign must still satisfy every invariant —
           including "every recorded transition is a declared edge" *)
        r.Fleet_chaos.violations = [])

(* --- campaign journal goldens --------------------------------------------- *)

let wal_digest disk =
  match disk.Disk.read Journal.wal_file with
  | None -> Alcotest.fail "no WAL"
  | Some w ->
    Printf.sprintf "%d %s" (Bytes.length w)
      (Ra_crypto.Bytesutil.to_hex (Ra_crypto.Sha256.digest w))

(* WAL bytes (length and SHA-256) measured before the campaign framing
   moved into the shared harness: the journals must not change by a byte. *)
let test_fleet_chaos_wal_golden () =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  ignore (Fleet_chaos.run ~devices ~seed ~journal:(Journal.create disk) ());
  check Alcotest.string "fleet-chaos WAL"
    "205824 c4c115fe9c428b2006153512a8cf06cf179a1f209fdf56f0451e077e96450858"
    (wal_digest disk)

(* Every snapshot file (name, length, SHA-256) measured before snapshot
   framing moved onto the shared CRC trailer: not a byte may change. *)
let test_fleet_chaos_snapshot_golden () =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  ignore (Fleet_chaos.run ~devices ~seed ~journal:(Journal.create disk) ());
  let snaps =
    disk.Disk.list ()
    |> List.filter (fun f -> String.starts_with ~prefix:"snap-" f)
    |> List.sort compare
    |> List.map (fun f ->
           match disk.Disk.read f with
           | None -> Alcotest.failf "listed snapshot %s unreadable" f
           | Some b ->
             Printf.sprintf "%s %d %s" f (Bytes.length b)
               (Ra_crypto.Bytesutil.to_hex (Ra_crypto.Sha256.digest b)))
  in
  check
    Alcotest.(list string)
    "fleet-chaos snapshots"
    [
      "snap-00000003 6569 cb126e09bcccad7127bbbbe4bf347a3eed808394c7c6220386817c8362a7be0d";
      "snap-00000006 6701 e832c7f44b119940d05f551965393938cd597e00d1de3eb0f6d5c39bc7297fa3";
      "snap-00000009 6734 d545e4f9643aae0d0b258271684ed4223bbfeaf9d53f5de1cc4cec2244e32aba";
      "snap-00000012 6734 bc550ecd61cad3f5fc43d6da74da7de18c463095647cef9df9f0ad4ea4dd7457";
      "snap-00000015 6800 ae862a25b64205640f7e460bc66f1e61e1724440b65031692e41ea5beeb93203";
    ]
    snaps

let record_fleet_roll () =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  let r =
    Fleet_roll.run ~devices:2000 ~shards:4 ~jobs:2 ~journal:(Journal.create disk) ()
  in
  (disk, r)

let test_fleet_roll_wal_golden () =
  let disk, _ = record_fleet_roll () in
  check Alcotest.string "fleet-roll WAL"
    "684 a70d5ca37cb899d6f757099d556bab4c17c53ba3b73cd79928b4e3ba820e904b"
    (wal_digest disk)

let test_fleet_roll_replay () =
  let disk, recorded = record_fleet_roll () in
  let root r = Ra_crypto.Bytesutil.to_hex r.Fleet_roll.roll.Ra_core.Fleet.fleet_root in
  (match Fleet_roll.replay ~disk ~jobs:1 () with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok replayed -> check Alcotest.string "replayed fleet root" (root recorded) (root replayed));
  (* rewrite the journal with one counter of the roll-call record altered *)
  let events =
    match Journal.recover disk with
    | Ok r -> r.Journal.events
    | Error e -> Alcotest.failf "recover failed: %s" e
  in
  let altered = Disk.Mem.disk (Disk.Mem.create ()) in
  let j = Journal.create altered in
  Array.iter
    (fun e ->
      Journal.append j
        (if e.Event.tag <> "roll-call" then e
         else
           Event.make e.Event.tag
             (List.map
                (function
                  | "hashed", Event.I n -> ("hashed", Event.I (n + 1)) | field -> field)
                e.Event.fields)))
    events;
  Journal.commit j;
  match Fleet_roll.replay ~disk:altered ~jobs:1 () with
  | Ok _ -> Alcotest.fail "a journal with an altered roll-call record replayed"
  | Error e ->
    let prefix = "replay diverged: divergence at event 1" in
    check Alcotest.string "fails at the altered record" prefix
      (String.sub e 0 (min (String.length e) (String.length prefix)))

(* A commit costs its batch, not the whole file so far: N append+sync
   pairs allocate O(total bytes). Counted in allocated bytes rather than
   wall time, so the check is deterministic. A sync that re-copies the
   durable file allocates O(N^2 * record) instead: ~70x over this bound. *)
let test_mem_sync_linear () =
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let record = Bytes.make 256 'r' and n = 1000 in
  disk.Disk.append "wal" record;
  disk.Disk.sync "wal";
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do
    disk.Disk.append "wal" record;
    disk.Disk.sync "wal"
  done;
  let allocated = Gc.allocated_bytes () -. before in
  let total = float_of_int (n * Bytes.length record) in
  check Alcotest.int "every byte durable" ((n + 1) * Bytes.length record)
    (Disk.Mem.synced_length store "wal");
  if allocated > 16. *. total then
    Alcotest.failf "%d append+sync pairs allocated %.0f bytes for %.0f bytes written"
      n allocated total

let () =
  Alcotest.run "ra_journal"
    [
      ( "codec",
        [
          qtest prop_event_roundtrip;
          Alcotest.test_case "wal round trip" `Quick test_wal_roundtrip;
          qtest prop_wal_torn_tail;
          Alcotest.test_case "duplicated tail rejected" `Quick
            test_wal_duplicated_tail_rejected;
          Alcotest.test_case "corrupt middle truncates" `Quick
            test_wal_corrupt_middle;
          qtest prop_wal_bit_flip_truncates;
          Alcotest.test_case "implausible length truncates" `Quick
            test_wal_implausible_length;
        ] );
      ( "crash",
        [
          qtest prop_crash_never_loses_acknowledged;
          qtest prop_snapshot_power_loss;
          Alcotest.test_case "resume truncates uncommitted tail" `Quick
            test_journal_resume_truncates;
          Alcotest.test_case "verifier catches divergence" `Quick
            test_verifier_divergence;
          Alcotest.test_case "Mem commit costs its batch" `Quick
            test_mem_sync_linear;
        ] );
      ( "state",
        [
          Alcotest.test_case "prng state round trip" `Quick
            test_prng_state_roundtrip;
          Alcotest.test_case "identical campaigns, identical digests" `Slow
            test_supervisor_serialize_load_roundtrip;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill at 5, resume, jobs 1" `Slow
            test_kill_resume_jobs1;
          Alcotest.test_case "kill at 7, resume, jobs 2" `Slow
            test_kill_resume_jobs_mixed;
          Alcotest.test_case "refuses garbage journals" `Quick
            test_resume_refuses_garbage;
          qtest prop_corrupt_journal_never_illegal_edge;
        ] );
      ( "wal",
        [
          Alcotest.test_case "fleet-chaos WAL golden" `Slow
            test_fleet_chaos_wal_golden;
          Alcotest.test_case "fleet-chaos snapshot golden" `Slow
            test_fleet_chaos_snapshot_golden;
          Alcotest.test_case "fleet-roll WAL golden" `Quick
            test_fleet_roll_wal_golden;
          Alcotest.test_case "fleet-roll record, replay, tamper" `Quick
            test_fleet_roll_replay;
        ] );
    ]
