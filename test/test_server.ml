(* Tests for the attestation control plane: wire codec round trips, the
   deterministic server core (bounded queue, shedding, dedup, journaled
   ingest), crash recovery through Journal.restart, simulated-network
   campaigns under stream faults (determinism per seed, invariance across
   --jobs, restart root bit-identity, golden outcomes), the load
   generator's retry session, and the real-TCP shell (a stalled client
   must not block other sessions). *)

open Ra_server
module Prng = Ra_sim.Prng
module Frame = Ra_core.Frame
module Disk = Ra_journal.Disk

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let hex = Ra_crypto.Bytesutil.to_hex

(* --- wire codec ---------------------------------------------------------- *)

let arb_request =
  let open QCheck in
  oneof
    [
      map
        (fun (device, seq, report) ->
          Wire.Submit
            { device; seq = abs seq; report = Bytes.of_string report })
        (triple (string_of_size (Gen.int_bound 16)) small_int
           (string_of_size (Gen.int_bound 64)));
      always Wire.Fleet_health;
      map (fun d -> Wire.Quarantine d) (string_of_size (Gen.int_bound 16));
      always Wire.Fleet_root;
      always Wire.Counters;
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request round trip" ~count:500 arb_request
    (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let arb_response =
  let open QCheck in
  oneof
    [
      map
        (fun (device, seq) -> Wire.Ack { device; seq = abs seq })
        (pair (string_of_size (Gen.int_bound 16)) small_int);
      map
        (fun (q, c) -> Wire.Busy { queued = abs q; capacity = abs c })
        (pair small_int small_int);
      map (fun r -> Wire.Rejected r) (string_of_size (Gen.int_bound 32));
      map
        (fun entries -> Wire.Health entries)
        (small_list
           (pair (string_of_size (Gen.int_bound 12))
              (string_of_size (Gen.int_bound 12))));
      map (fun r -> Wire.Root (Bytes.of_string r)) (string_of_size (Gen.int_bound 32));
      map
        (fun (a, b, c, d, e) ->
          Wire.Stats
            {
              Wire.accepted = abs a;
              shed = abs b;
              deduped = abs c;
              rejected = abs d;
              recovered = abs e;
            })
        (tup5 small_int small_int small_int small_int small_int);
    ]

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response round trip" ~count:500 arb_response
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' -> resp = resp'
      | Error _ -> false)

let test_wire_rejects_garbage () =
  (match Wire.decode_request (Bytes.of_string "\x2a") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag decoded");
  match Wire.decode_request Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty request decoded"

(* A Fleet_health answer grows ~36 B per device: past ~29k devices it no
   longer fits one stream frame. The shared request pump must answer a
   small Rejected instead of handing a transport a payload that
   [seal_stream] refuses (which used to kill the server on one request). *)
let test_oversized_response_rejected () =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  let core = Core.create ~config:{ Core.default_config with Core.devices = 30_000 } disk in
  let response = Core.handle_payload core (Wire.encode_request Wire.Fleet_health) in
  ignore (Frame.seal_stream response);
  match Wire.decode_response response with
  | Ok (Wire.Rejected _) -> ()
  | Ok r -> Alcotest.failf "expected Rejected, got %s" (Wire.response_to_string r)
  | Error e -> Alcotest.failf "undecodable response: %s" e

(* --- netsim campaigns ---------------------------------------------------- *)

let smoke_config =
  {
    Netsim.default with
    Netsim.devices = 12;
    reports_per_device = 3;
    capacity = 5;
    seed = 11;
  }

let run_ok ?jobs config =
  match Netsim.run ?jobs config with
  | Ok o -> o
  | Error e -> Alcotest.failf "netsim campaign failed: %s" e

let test_netsim_ideal () =
  let o =
    run_ok { smoke_config with Netsim.faults = Ra_faults.Stream_faults.ideal }
  in
  check Alcotest.int "all items acked" 36 o.Netsim.acked;
  check Alcotest.int "all unique reports accepted" 36 o.Netsim.counters.Wire.accepted;
  check Alcotest.int "tampered verdicts match the infected set"
    (Loadgen.expected_tampered ~devices:12)
    o.Netsim.tampered;
  check Alcotest.int "no connection died" 0 o.Netsim.dead_conns

let test_netsim_sheds_and_converges () =
  let o = run_ok smoke_config in
  check Alcotest.int "all items acked despite faults" 36 o.Netsim.acked;
  check Alcotest.int "accepted is exactly the unique plan" 36
    o.Netsim.counters.Wire.accepted;
  if o.Netsim.counters.Wire.shed = 0 then
    Alcotest.fail "burst never overran the bounded queue (shed = 0)";
  if o.Netsim.busy = 0 then Alcotest.fail "no client ever absorbed a Busy";
  if o.Netsim.retries = 0 then Alcotest.fail "no client ever retried"

let prop_netsim_deterministic =
  QCheck.Test.make ~name:"campaign outcome is a pure function of the seed"
    ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = { smoke_config with Netsim.seed } in
      Netsim.signature (run_ok config) = Netsim.signature (run_ok config))

let prop_netsim_jobs_invariant =
  QCheck.Test.make ~name:"campaign outcome is invariant across --jobs"
    ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = { smoke_config with Netsim.seed } in
      Netsim.signature (run_ok ~jobs:1 config)
      = Netsim.signature (run_ok ~jobs:4 config))

let test_netsim_restart_root_bit_identical () =
  let unkilled = run_ok smoke_config in
  let killed = run_ok { smoke_config with Netsim.crash_at = Some 40 } in
  check Alcotest.int "one restart" 1 killed.Netsim.restarts;
  check Alcotest.string "fleet root bit-identical to the unkilled run"
    (hex unkilled.Netsim.root) (hex killed.Netsim.root);
  check Alcotest.int "accepted identical" unkilled.Netsim.counters.Wire.accepted
    killed.Netsim.counters.Wire.accepted;
  check Alcotest.int "tampered identical" unkilled.Netsim.tampered
    killed.Netsim.tampered;
  if killed.Netsim.counters.Wire.recovered = 0 then
    Alcotest.fail "the crash recovered nothing — it landed before any ingest"

(* Golden outcomes, measured before Netsim's retry policy moved into
   Session: the merge must not move a single retry, Busy, dead connection
   or step. *)
let test_netsim_golden_signatures () =
  List.iter
    (fun (seed, crash_at, want) ->
      let o = run_ok { smoke_config with Netsim.seed; crash_at } in
      let got = Printf.sprintf "steps=%d %s" o.Netsim.steps (Netsim.signature o) in
      let label =
        Printf.sprintf "seed %d%s" seed
          (match crash_at with Some at -> Printf.sprintf " crash@%d" at | None -> "")
      in
      check Alcotest.string label want got)
    [
      ( 1, None,
        "steps=207 acc=36 shed=5 dedup=12 rej=0 rec=0 acked=36 retries=22 busy=4 dead=11 \
         root=c321e811d7991e81b33bd0e9adff7103dcf3f0a8fc86996ff0541241e125abbc" );
      ( 1, Some 40,
        "steps=183 acc=36 shed=0 dedup=7 rej=0 rec=25 acked=36 retries=22 busy=4 dead=17 \
         root=c321e811d7991e81b33bd0e9adff7103dcf3f0a8fc86996ff0541241e125abbc" );
      ( 7, None,
        "steps=185 acc=36 shed=7 dedup=7 rej=0 rec=0 acked=36 retries=17 busy=5 dead=8 \
         root=3cc075b59c99720e091b4239b759aac551da58c3222078111c26d02bd5b30fbd" );
      ( 7, Some 40,
        "steps=86 acc=36 shed=0 dedup=3 rej=0 rec=28 acked=36 retries=16 busy=5 dead=17 \
         root=3cc075b59c99720e091b4239b759aac551da58c3222078111c26d02bd5b30fbd" );
      ( 42, None,
        "steps=221 acc=36 shed=9 dedup=11 rej=0 rec=0 acked=36 retries=28 busy=9 dead=14 \
         root=a7a9c4428839fae1b4ef710fe4f7cff3475f385c88c884583514dfdfdf8858b3" );
      ( 42, Some 40,
        "steps=973 acc=36 shed=0 dedup=13 rej=0 rec=21 acked=36 retries=33 busy=9 dead=21 \
         root=a7a9c4428839fae1b4ef710fe4f7cff3475f385c88c884583514dfdfdf8858b3" );
    ]

(* --- load-generator session --------------------------------------------- *)

let item seq = { Loadgen.device = "node-00000"; seq; report = Bytes.empty }
let ack seq = Wire.encode_response (Wire.Ack { device = "node-00000"; seq })
let seq_opt = Alcotest.(option int)

(* One tick is one ns; the RTO starts at 100 ticks, floor 10, ceiling 10k. *)
let session () =
  let rtt = Ra_core.Rtt.create ~initial_rto:100 ~min_rto:10 ~max_rto:10_000 () in
  (rtt, Session.create ~tick_ns:1 rtt [ item 1; item 2 ])

let next_seq s ~now = Option.map (fun it -> it.Loadgen.seq) (Session.next s ~now)

let test_session_karn () =
  let rtt, s = session () in
  check seq_opt "head due at once" (Some 1) (next_seq s ~now:0);
  Session.sent s ~now:0;
  check seq_opt "nothing due while in flight" None (next_seq s ~now:99);
  Session.receive s ~now:30 (ack 1);
  check Alcotest.int "a first transmission's Ack is a sample" 1
    (Ra_core.Rtt.samples rtt);
  check Alcotest.int "acked" 1 (Session.acked s);
  check seq_opt "next item due at once" (Some 2) (next_seq s ~now:30);
  Session.sent s ~now:30;
  let deadline = 30 + Ra_core.Rtt.rto rtt in
  check seq_opt "no resend before the deadline" None
    (next_seq s ~now:(deadline - 1));
  check seq_opt "resend at the deadline" (Some 2) (next_seq s ~now:deadline);
  Session.sent s ~now:deadline;
  check Alcotest.int "resend counted" 1 (Session.retries s);
  check Alcotest.int "timeout backed off" 1 (Ra_core.Rtt.backoffs rtt);
  Session.receive s ~now:(deadline + 5) (ack 2);
  check Alcotest.int "a retransmit's Ack is no sample (Karn)" 1
    (Ra_core.Rtt.samples rtt);
  check Alcotest.bool "finished" true (Session.finished s)

let test_session_busy () =
  let rtt, s = session () in
  Session.sent s ~now:0;
  Session.receive s ~now:10
    (Wire.encode_response (Wire.Busy { queued = 8; capacity = 8 }));
  check Alcotest.int "busy counted" 1 (Session.busy s);
  check Alcotest.int "backed off" 1 (Ra_core.Rtt.backoffs rtt);
  check Alcotest.int "RTO doubled" 200 (Ra_core.Rtt.rto rtt);
  check seq_opt "waits one RTO" None (next_seq s ~now:209);
  check seq_opt "same item after the wait" (Some 1) (next_seq s ~now:210);
  check Alcotest.int "not acked" 0 (Session.acked s)

let test_session_rejected () =
  let _, s = session () in
  Session.sent s ~now:0;
  Session.receive s ~now:5 (Wire.encode_response (Wire.Rejected "no"));
  check Alcotest.int "not acked" 0 (Session.acked s);
  check seq_opt "head dropped: next item due at once" (Some 2)
    (next_seq s ~now:5);
  Session.sent s ~now:5;
  check Alcotest.int "a fresh item's first send is no retry" 0
    (Session.retries s)

let test_session_stale_ack () =
  let rtt, s = session () in
  let state () =
    Printf.sprintf "finished=%b acked=%d retries=%d busy=%d samples=%d backoffs=%d \
                    rto=%d next@50=%s next@1000=%s"
      (Session.finished s) (Session.acked s) (Session.retries s) (Session.busy s)
      (Ra_core.Rtt.samples rtt) (Ra_core.Rtt.backoffs rtt) (Ra_core.Rtt.rto rtt)
      (Option.fold ~none:"-" ~some:string_of_int (next_seq s ~now:50))
      (Option.fold ~none:"-" ~some:string_of_int (next_seq s ~now:1000))
  in
  let idle = state () in
  Session.receive s ~now:5 (ack 1);
  Session.receive s ~now:5 (Wire.encode_response (Wire.Busy { queued = 1; capacity = 1 }));
  Session.receive s ~now:5 (Bytes.of_string "garbage");
  check Alcotest.string "answers with nothing in flight" idle (state ());
  Session.sent s ~now:10;
  let busy = state () in
  Session.receive s ~now:20 (ack 2);
  Session.receive s ~now:20 (ack 0);
  Session.receive s ~now:20 (Bytes.of_string "garbage");
  check Alcotest.string "Acks for other items" busy (state ())

(* The regression for an outage: a connection lost under a resend backs
   off once and waits one RTO; reporting the same dead connection again
   neither backs off again nor makes the item due early. *)
let test_session_lost () =
  let rtt, s = session () in
  Session.sent s ~now:0;
  let deadline = Ra_core.Rtt.rto rtt in
  check seq_opt "resend due" (Some 1) (next_seq s ~now:deadline);
  Session.sent s ~now:deadline;
  Session.lost s ~now:deadline;
  check Alcotest.int "timeout + lost: two back-offs" 2 (Ra_core.Rtt.backoffs rtt);
  Session.lost s ~now:(deadline + 1);
  check Alcotest.int "lost again with nothing in flight: no back-off" 2
    (Ra_core.Rtt.backoffs rtt);
  let wait_until = deadline + Ra_core.Rtt.rto rtt in
  for now = deadline to wait_until - 1 do
    if Session.next s ~now <> None then
      Alcotest.failf "retransmitted at %d, before the wait ends at %d" now wait_until
  done;
  check seq_opt "due once the wait is over" (Some 1) (next_seq s ~now:wait_until);
  Session.sent s ~now:wait_until;
  check Alcotest.int "two resends" 2 (Session.retries s)

(* The split is positional: item k is device k mod devices, with no id
   parsing — a six-digit roster index lands where it belongs. *)
let test_session_per_device_split () =
  let devices = 5 in
  let per =
    Session.per_device ~devices
      (Loadgen.plan ~devices ~seed:3 ~reports_per_device:3)
  in
  check Alcotest.int "one list per device" devices (Array.length per);
  Array.iteri
    (fun i items ->
      let id = World.device_id i in
      check Alcotest.(list string) id [ id; id; id ]
        (List.map (fun it -> it.Loadgen.device) items);
      check Alcotest.(list int) (id ^ " seq order") [ 1; 2; 3 ]
        (List.map (fun it -> it.Loadgen.seq) items))
    per;
  let devices = 100_001 in
  let synthetic =
    Array.init (2 * devices) (fun k ->
        { Loadgen.device = World.device_id (k mod devices); seq = (k / devices) + 1;
          report = Bytes.empty })
  in
  let per = Session.per_device ~devices synthetic in
  check Alcotest.(list string) "index 100000"
    [ World.device_id 100_000; World.device_id 100_000 ]
    (List.map (fun it -> it.Loadgen.device) per.(100_000))

(* --- real TCP shell ------------------------------------------------------- *)

let tcp_port = 7493

(* Fork a real server on [tcp_port] with a throwaway journal, run [f] in
   the parent once the listener answers, and always reap the child. *)
let with_server ~devices ~seed ~capacity f =
  let dir = Filename.temp_file "ra-server-test" "" in
  Sys.remove dir;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 null Unix.stdout;
       Unix.dup2 null Unix.stderr;
       Tcp.serve ~port:tcp_port ~dir ~config:{ Core.devices; seed; capacity } ()
     with _ -> ());
    exit 1
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let rec await n =
          if n = 0 then Alcotest.fail "server never came up";
          match Tcp.request ~port:tcp_port ~timeout_s:1.0 Wire.Counters with
          | Ok (Wire.Stats _) -> ()
          | _ ->
              ignore (Unix.select [] [] [] 0.1);
              await (n - 1)
        in
        await 50;
        f ())

let test_stalled_client_does_not_block () =
  with_server ~devices:8 ~seed:7 ~capacity:16 (fun () ->
      (* park a connection mid-frame: the magic plus half the length field,
         then silence — the classic slowloris posture *)
      let stalled = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect stalled
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", tcp_port));
      Fun.protect
        ~finally:(fun () -> try Unix.close stalled with Unix.Unix_error _ -> ())
        (fun () ->
          let stream = Frame.seal_stream (Wire.encode_request Wire.Fleet_root) in
          check Alcotest.int "half frame written" 4 (Unix.write stalled stream 0 4);
          (* while it hangs, a full campaign completes on other sockets *)
          match
            Tcp.run_campaign ~port:tcp_port ~give_up_after_s:60. ~devices:8
              ~seed:7 ~reports_per_device:2 ()
          with
          | Error e -> Alcotest.fail e
          | Ok c ->
              check Alcotest.int "every report acked past the stalled peer" 16
                c.Tcp.acked;
              check Alcotest.int "server accepted the full plan" 16
                c.Tcp.stats.Wire.accepted;
              check Alcotest.int "tampered verdicts match the plan"
                (Loadgen.expected_tampered ~devices:8)
                c.Tcp.tampered))

let test_tcp_quarantine_endpoint () =
  with_server ~devices:4 ~seed:9 ~capacity:8 (fun () ->
      (match Tcp.request ~port:tcp_port (Wire.Quarantine "node-00002") with
      | Ok (Wire.Ack { device = "node-00002"; seq = 0 }) -> ()
      | _ -> Alcotest.fail "quarantine not acknowledged");
      (match Tcp.request ~port:tcp_port (Wire.Quarantine "intruder") with
      | Ok (Wire.Rejected _) -> ()
      | _ -> Alcotest.fail "unknown device quarantine not rejected");
      match Tcp.request ~port:tcp_port Wire.Fleet_health with
      | Ok (Wire.Health entries) ->
          check Alcotest.int "health lists the whole fleet" 4
            (List.length entries);
          check Alcotest.string "quarantine visible in health" "quarantined"
            (List.assoc "node-00002" entries)
      | _ -> Alcotest.fail "health query failed")

(* --- world verifier views --------------------------------------------- *)

(* One report from a device provisioned by the World recipe, optionally
   after a static infection — the same path Loadgen takes. *)
let attest dev ~seq =
  let out = ref None in
  Ra_core.Mp.run dev Ra_core.Mp.default_config
    ~nonce:(Loadgen.nonce ~seed:7 ~device:"node-00000" ~seq)
    ~on_complete:(fun r -> out := Some r)
    ();
  Ra_device.Device.run dev;
  Ra_core.Report.encode (Option.get !out)

let test_world_verify_matches_fresh_verifier () =
  let world = World.build ~devices:8 ~seed:7 in
  let fleet = World.fleet world in
  let reference device bytes =
    match Ra_core.Report.decode bytes with
    | Error e -> Error ("undecodable report: " ^ e)
    | Ok r ->
        Ok
          ( Ra_core.Verifier.verify (Ra_core.Fleet.verifier_for fleet device) r,
            r.Ra_core.Report.mac )
  in
  let agree label device bytes =
    match (World.verify world ~device bytes, reference device bytes) with
    | Ok (v, mac), Ok (v', mac') ->
        check Alcotest.string label
          (Ra_core.Verifier.verdict_to_string v')
          (Ra_core.Verifier.verdict_to_string v);
        check Alcotest.string (label ^ " mac") (hex mac') (hex mac);
        Some v
    | Error _, Error _ -> None
    | _ -> Alcotest.failf "%s: World.verify and the fresh verifier disagree" label
  in
  let expect label want got =
    check Alcotest.(option string) label
      (Option.map Ra_core.Verifier.verdict_to_string want)
      (Option.map Ra_core.Verifier.verdict_to_string got)
  in
  let clean = Some Ra_core.Verifier.Clean
  and tampered = Some Ra_core.Verifier.Tampered in
  (* node-00000 reports clean twice, then is infected and reports again:
     the tampered report meets a view whose memo the clean ones warmed *)
  let prover =
    Ra_core.Fleet.create ~master_secret:(World.master_secret ~seed:7) ()
  in
  let dev =
    Ra_core.Fleet.provision prover "node-00000" ~config:World.device_config ()
  in
  let r1 = attest dev ~seq:1 in
  let r2 = attest dev ~seq:2 in
  ignore
    (Ra_malware.Malware.install dev ~rng:(Prng.create ~seed:3) ~block:5
       ~priority:8 Ra_malware.Malware.Static);
  let r3 = attest dev ~seq:3 in
  let d = "node-00000" in
  expect "clean 1" clean (agree "clean 1" d r1);
  expect "clean 2" clean (agree "clean 2" d r2);
  expect "tampered after clean" tampered (agree "tampered after clean" d r3);
  expect "clean again" clean (agree "clean again" d r1);
  expect "tampered again" tampered (agree "tampered again" d r3);
  (* a clean report with a forged MAC, and one claimed by another device *)
  let forged =
    let r = Result.get_ok (Ra_core.Report.decode r2) in
    let mac = Bytes.copy r.Ra_core.Report.mac in
    Bytes.set mac 0 (Char.chr (Char.code (Bytes.get mac 0) lxor 1));
    Ra_core.Report.encode { r with Ra_core.Report.mac }
  in
  expect "forged mac" tampered (agree "forged mac" d forged);
  expect "wrong device" tampered (agree "wrong device" "node-00001" r1);
  expect "undecodable" None (agree "undecodable" d (Bytes.of_string "garbage"));
  (* Loadgen's plan, twice over: infected roster slots come back Tampered
     on cold and warm views alike *)
  let plan = Loadgen.plan ~devices:8 ~seed:7 ~reports_per_device:2 in
  for _ = 1 to 2 do
    Array.iter
      (fun it ->
        let i = int_of_string (String.sub it.Loadgen.device 5 5) in
        let label = Printf.sprintf "%s#%d" it.Loadgen.device it.Loadgen.seq in
        expect label
          (if Loadgen.is_tampered i then tampered else clean)
          (agree label it.Loadgen.device it.Loadgen.report))
      plan
  done

(* One plan, submitted in the same order and drained every 16 submits at
   jobs 1, 2 and 4: the per-device views are touched by whichever domain
   drew the group, yet the root must not move. *)
let test_core_root_jobs_invariant () =
  let plan = Loadgen.plan ~devices:24 ~seed:11 ~reports_per_device:4 in
  let run jobs =
    let core =
      Core.create
        ~config:{ Core.devices = 24; seed = 11; capacity = 64 }
        (Disk.Mem.disk (Disk.Mem.create ()))
    in
    Array.iteri
      (fun k it ->
        (match
           Core.handle ~jobs core
             (Wire.Submit
                { device = it.Loadgen.device; seq = it.Loadgen.seq; report = it.Loadgen.report })
         with
        | Wire.Ack _ -> ()
        | _ -> Alcotest.failf "jobs %d: item %d not acked" jobs k);
        if k mod 16 = 15 then ignore (Core.drain ~jobs core))
      plan;
    ignore (Core.drain ~jobs core);
    let _, tampered, unreported = World.verdict_counts (Core.world core) in
    check Alcotest.int "tampered" (Loadgen.expected_tampered ~devices:24) tampered;
    check Alcotest.int "unreported" 0 unreported;
    hex (Core.root core)
  in
  let r1 = run 1 in
  check Alcotest.string "jobs 2 root" r1 (run 2);
  check Alcotest.string "jobs 4 root" r1 (run 4)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          qtest prop_request_roundtrip;
          qtest prop_response_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "oversized response rejected" `Quick
            test_oversized_response_rejected;
        ] );
      (* the tcp group forks a real server per test, and OCaml 5 forbids
         Unix.fork once domains exist — so it must run before the netsim
         group, whose Core.drain spins up the Ra_parallel pool *)
      ( "tcp",
        [
          Alcotest.test_case "stalled client cannot block other sessions"
            `Quick test_stalled_client_does_not_block;
          Alcotest.test_case "quarantine endpoint" `Quick
            test_tcp_quarantine_endpoint;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "ideal network campaign" `Quick test_netsim_ideal;
          Alcotest.test_case "shedding under burst" `Quick
            test_netsim_sheds_and_converges;
          qtest prop_netsim_deterministic;
          qtest prop_netsim_jobs_invariant;
          Alcotest.test_case "restart root bit-identity" `Quick
            test_netsim_restart_root_bit_identical;
          Alcotest.test_case "golden signatures" `Quick
            test_netsim_golden_signatures;
        ] );
      ( "retry",
        [
          Alcotest.test_case "Karn: no sample after a retransmit" `Quick
            test_session_karn;
          Alcotest.test_case "Busy backs off one RTO" `Quick test_session_busy;
          Alcotest.test_case "Rejected drops the head" `Quick
            test_session_rejected;
          Alcotest.test_case "stale Acks change nothing" `Quick
            test_session_stale_ack;
          Alcotest.test_case "lost connection backs off once" `Quick
            test_session_lost;
          Alcotest.test_case "per-device split by position" `Quick
            test_session_per_device_split;
        ] );
      ( "world",
        [
          Alcotest.test_case "views agree with a fresh verifier" `Quick
            test_world_verify_matches_fresh_verifier;
          Alcotest.test_case "root bit-identical across jobs 1/2/4" `Quick
            test_core_root_jobs_invariant;
        ] );
    ]
