module J = Ra_journal.Journal
module Ev = Ra_journal.Event
module Disk = Ra_journal.Disk

(* The deterministic heart of the attestation server. Everything that
   decides an outcome lives here — bounded queue, shedding, dedup,
   journaling, verification, the verdict table — and none of it touches a
   socket or a clock. The transports (Netsim for the simulated network,
   Tcp for real sockets) only move frames; that is what makes the
   overload counters a pure function of the traffic and lets the chaos
   harness replay campaigns bit-identically. *)

type config = { devices : int; seed : int; capacity : int }

let default_config = { devices = 32; seed = 7; capacity = 64 }

type t = {
  config : config;
  world : World.t;
  journal : J.t;
  queue : (string * int * Bytes.t) Queue.t;
  seen : (string * int, unit) Hashtbl.t;
  mutable accepted : int;
  mutable shed : int;
  mutable deduped : int;
  mutable rejected : int;
  mutable recovered : int;
}

let header_tag = "server"
let report_tag = "report"
let quarantine_tag = "quarantine"

let header_event config =
  Ev.make header_tag
    [
      ("devices", Ev.I config.devices);
      ("seed", Ev.I config.seed);
      ("capacity", Ev.I config.capacity);
    ]

let parse_header events =
  if Array.length events = 0 then Error "journal is empty"
  else
    let e = events.(0) in
    if e.Ev.tag <> header_tag then
      Error "journal does not start with a server header"
    else
      match (Ev.find_i e "devices", Ev.find_i e "seed", Ev.find_i e "capacity") with
      | Some devices, Some seed, Some capacity when devices > 0 && capacity > 0 ->
          Ok { devices; seed; capacity }
      | _ -> Error "malformed server header"

let make config world journal =
  {
    config;
    world;
    journal;
    queue = Queue.create ();
    seen = Hashtbl.create 1024;
    accepted = 0;
    shed = 0;
    deduped = 0;
    rejected = 0;
    recovered = 0;
  }

let create ?(config = default_config) disk =
  if config.capacity < 1 then invalid_arg "Core.create: capacity < 1";
  let world = World.build ~devices:config.devices ~seed:config.seed in
  let j = J.create disk in
  J.append j (header_event config);
  J.commit j;
  make config world j

(* Replay one journaled mutation during recovery. Verification is
   deterministic, so re-verifying the journaled report bytes rebuilds the
   exact verdict table the pre-crash server held — verdicts themselves
   are never journaled. *)
let replay_event t ev =
  if ev.Ev.tag = report_tag then begin
    match (Ev.find_s ev "device", Ev.find_i ev "seq") with
    | Some device, Some seq -> (
        let report = Ev.getb ev "report" in
        match World.verify t.world ~device report with
        | Ok (verdict, mac) ->
            World.record t.world ~device ~seq verdict mac;
            Hashtbl.replace t.seen (device, seq) ();
            t.accepted <- t.accepted + 1;
            t.recovered <- t.recovered + 1;
            Ok ()
        | Error e ->
            Error (Printf.sprintf "journaled report %s#%d fails verification replay: %s"
                     device seq e))
    | _ -> Error "malformed report record"
  end
  else if ev.Ev.tag = quarantine_tag then begin
    match Ev.find_s ev "device" with
    | Some device ->
        ignore (World.quarantine t.world device);
        Ok ()
    | None -> Error "malformed quarantine record"
  end
  else Ok ()

let recover disk =
  let ctx = ref None in
  let validate (r : J.recovery) ~keep:_ =
    match parse_header r.J.events with
    | Error _ as e -> e
    | Ok config ->
        ctx := Some (config, r.J.events);
        Ok ()
  in
  (* Every acknowledged event is a consistency point for the server —
     unlike the supervisor there are no multi-event rounds to roll back
     to, so keep the whole decodable log. *)
  match J.restart ~validate disk ~keep:(fun r -> Array.length r.J.events) with
  | Error _ as e -> e
  | Ok (_, journal) -> (
      match !ctx with
      | None -> Error "restart validated but captured no header (bug)"
      | Some (config, events) ->
          let world = World.build ~devices:config.devices ~seed:config.seed in
          let t = make config world journal in
          let rec replay i =
            if i >= Array.length events then Ok t
            else
              match replay_event t events.(i) with
              | Ok () -> replay (i + 1)
              | Error _ as e -> e
          in
          replay 1)

let config t = t.config
let world t = t.world
let pending t = Queue.length t.queue
let root t = World.root t.world

let counters t =
  {
    Wire.accepted = t.accepted;
    shed = t.shed;
    deduped = t.deduped;
    rejected = t.rejected;
    recovered = t.recovered;
  }

let submit t ~device ~seq report =
  if not (World.known t.world device) then begin
    t.rejected <- t.rejected + 1;
    Wire.Rejected (Printf.sprintf "unknown device %s" device)
  end
  else if seq < 1 then begin
    t.rejected <- t.rejected + 1;
    Wire.Rejected "sequence numbers start at 1"
  end
  else if Hashtbl.mem t.seen (device, seq) then begin
    (* A retransmit of an already-durable report (the Ack was lost, or
       the client outlived a crash we recovered from): re-acknowledge
       without touching the journal. *)
    t.deduped <- t.deduped + 1;
    (* ralint: allow O1 — re-ack of a report (device, seq) already journaled
       and committed before its first Ack; nothing new to make durable *)
    Wire.Ack { device; seq }
  end
  else if Queue.length t.queue >= t.config.capacity then begin
    t.shed <- t.shed + 1;
    Wire.Busy { queued = Queue.length t.queue; capacity = t.config.capacity }
  end
  else begin
    (* Durable before acknowledged: the journal record and its commit
       precede the Ack, so an Ack the client acted on is never lost to a
       kill -9. *)
    J.append t.journal
      (Ev.make report_tag
         [ ("device", Ev.S device); ("seq", Ev.I seq); ("report", Ev.B report) ]);
    J.commit t.journal;
    Hashtbl.replace t.seen (device, seq) ();
    Queue.add (device, seq, report) t.queue;
    t.accepted <- t.accepted + 1;
    Wire.Ack { device; seq }
  end

(* Drain the accepted queue through verification. Batch items are grouped
   by device and the groups verified on the domain pool, so each device's
   verifier view in [World] is touched by exactly one domain per drain —
   the contract [World.verify] states. Results are folded back in dequeue
   order, so verdict-table updates — and every counter — are
   bit-identical for any [jobs]. *)
let drain ?jobs t =
  let n = Queue.length t.queue in
  if n = 0 then 0
  else begin
    let batch = Array.init n (fun _ -> Queue.pop t.queue) in
    let groups = Hashtbl.create 64 in
    let order = ref [] in
    Array.iter
      (fun (device, seq, report) ->
        match Hashtbl.find_opt groups device with
        | Some items -> items := (seq, report) :: !items
        | None ->
            Hashtbl.replace groups device (ref [ (seq, report) ]);
            order := device :: !order)
      batch;
    let order = Array.of_list (List.rev !order) in
    let verified =
      Ra_parallel.parallel_map ?jobs
        (fun device ->
          let items = List.rev !(Hashtbl.find groups device) in
          List.map
            (fun (seq, report) ->
              (seq, World.verify t.world ~device report))
            items)
        order
    in
    Array.iteri
      (fun gi device ->
        List.iter
          (fun (seq, result) ->
            match result with
            | Ok (verdict, mac) -> World.record t.world ~device ~seq verdict mac
            | Error _ ->
                (* journaled bytes that fail to decode can only mean the
                   journal itself lied; submit already validated them *)
                assert false)
          verified.(gi))
      order;
    n
  end

let handle ?jobs t request =
  match request with
  | Wire.Submit { device; seq; report } -> submit t ~device ~seq report
  | Wire.Fleet_health ->
      ignore (drain ?jobs t);
      Wire.Health (World.health t.world)
  | Wire.Quarantine device ->
      if World.quarantine t.world device then begin
        J.append t.journal (Ev.make quarantine_tag [ ("device", Ev.S device) ]);
        J.commit t.journal;
        Wire.Ack { device; seq = 0 }
      end
      else begin
        t.rejected <- t.rejected + 1;
        Wire.Rejected (Printf.sprintf "unknown device %s" device)
      end
  | Wire.Fleet_root ->
      ignore (drain ?jobs t);
      Wire.Root (World.root t.world)
  | Wire.Counters -> Wire.Stats (counters t)

let handle_payload ?jobs t payload =
  let response =
    match Wire.decode_request payload with
    | Error msg -> Wire.encode_response (Wire.Rejected msg)
    | Ok req -> Wire.encode_response (handle ?jobs t req)
  in
  if Bytes.length response <= Ra_core.Frame.max_payload then response
  else
    Wire.encode_response
      (Wire.Rejected
         (Printf.sprintf "response of %d bytes exceeds the %d-byte frame cap"
            (Bytes.length response) Ra_core.Frame.max_payload))
