open Ra_sim
open Ra_device
open Ra_core

type config = {
  mp : Mp.config;
  update : Code_update.config;
  breaker : Breaker.config;
  round_budget : Timebase.t;
  session_attempts : int;
  session_max_timeout : Timebase.t;
  net_delay : Timebase.t;
  probation_rounds : int;
  remediation_attempts : int;
  flap_threshold : int;
  gap_allowance : int;
}

let default_config =
  {
    mp = Mp.default_config;
    update = Code_update.default_config;
    breaker = Breaker.default_config;
    round_budget = Timebase.s 30;
    session_attempts = 8;
    session_max_timeout = Timebase.s 4;
    net_delay = Timebase.ms 40;
    probation_rounds = 2;
    remediation_attempts = 2;
    flap_threshold = 12;
    gap_allowance = 1;
  }

type outcome = Clean | Tampered | Timeout

type dsup = {
  id : Fleet.device_id;
  device : Device.t;
  verifier : Verifier.t;
  machine : Health.t;
  brk : Breaker.t;
  rtt : Rtt.t;
  mutable channel : Channel.config;
  mutable local_deadline : Timebase.t; (* device time the next round runs to *)
  mutable probation_clean : int;
  mutable remediations : int;
  mutable remediated : bool; (* some update push was verified *)
  mutable detected_round : int option;
  mutable pending_gap : bool;
  mutable pending_tampered : bool;
}

type t = {
  config : config;
  roster : dsup array; (* enrolment order *)
  by_id : (Fleet.device_id, dsup) Hashtbl.t;
  store : Ra_cache.Store.t; (* the fleet's shared digest store *)
  mutable round_no : int;
  mutable converged : bool;
  mutable attestations : int;
  mutable timeouts : int;
  mutable probes_blocked : int;
  mutable remediation_pushes : int;
  mutable journal : Ra_journal.Journal.t option;
  mutable last_blobs : Bytes.t array; (* last journaled per-device state *)
}

(* --- durable state ------------------------------------------------------- *)

module E = Ra_journal.Event
module C = Ra_journal.Codec

(* Positional enum tables: the wire index of each constructor. Appending
   new constructors keeps old journals readable; reordering breaks them. *)
(* ralint: allow P2 -- read-only constructor tables, never written. *)
let states =
  [|
    Health.Healthy;
    Health.Suspect;
    Health.Unreachable;
    Health.Compromised;
    Health.Quarantined;
    Health.Remediating;
    Health.Probation;
  |]

(* ralint: allow P2 -- read-only constructor table, never written. *)
let causes =
  [|
    Health.Verified_clean;
    Health.Verdict_tampered;
    Health.Report_timeout;
    Health.Gap_audit;
    Health.Breaker_open;
    Health.Probe_exhausted;
    Health.Flapping;
    Health.Isolated;
    Health.Update_pushed;
    Health.Update_verified;
    Health.Update_failed;
    Health.Probation_passed;
    Health.Probation_failed;
  |]

let index_in arr v =
  let rec go i = if arr.(i) = v then i else go (i + 1) in
  go 0

let checked arr what i =
  if i < 0 || i >= Array.length arr then
    C.fail (Printf.sprintf "bad %s index %d" what i)
  else arr.(i)

let serialize_device d =
  let w = C.writer () in
  C.str w d.id;
  C.u8 w (index_in states (Health.state d.machine));
  let hist = Health.history d.machine in
  C.i64 w (List.length hist);
  List.iter
    (fun tr ->
      C.i64 w tr.Health.round;
      C.u8 w (index_in states tr.Health.from_);
      C.u8 w (index_in causes tr.Health.cause);
      C.u8 w (index_in states tr.Health.to_))
    hist;
  C.bytes w (Breaker.save d.brk);
  C.bytes w (Rtt.save d.rtt);
  C.i64 w d.local_deadline;
  C.i64 w d.probation_clean;
  C.i64 w d.remediations;
  C.u8 w (if d.remediated then 1 else 0);
  C.i64 w (match d.detected_round with Some r -> r | None -> -1);
  C.u8 w (if d.pending_gap then 1 else 0);
  C.u8 w (if d.pending_tampered then 1 else 0);
  C.contents w

let restore_device d b =
  match
    let r = C.reader b in
    let id = C.read_str r in
    let current = checked states "state" (C.read_u8 r) in
    let n = C.read_i64 r in
    if n < 0 || n > 1_000_000 then C.fail "implausible history length";
    let hist =
      List.init n (fun _ ->
          let round = C.read_i64 r in
          let from_ = checked states "state" (C.read_u8 r) in
          let cause = checked causes "cause" (C.read_u8 r) in
          let to_ = checked states "state" (C.read_u8 r) in
          { Health.round; from_; cause; to_ })
    in
    let brk = C.read_bytes r in
    let rtt = C.read_bytes r in
    let local_deadline = C.read_i64 r in
    let probation_clean = C.read_i64 r in
    let remediations = C.read_i64 r in
    let remediated = C.read_u8 r <> 0 in
    let detected = C.read_i64 r in
    let pending_gap = C.read_u8 r <> 0 in
    let pending_tampered = C.read_u8 r <> 0 in
    C.expect_end r;
    ( id,
      current,
      hist,
      brk,
      rtt,
      (local_deadline, probation_clean, remediations, remediated, detected),
      (pending_gap, pending_tampered) )
  with
  | exception C.Corrupt msg -> Error msg
  | id, current, hist, brk, rtt, scalars, pendings ->
      let ( let* ) = Result.bind in
      let* () =
        if id = d.id then Ok ()
        else
          Error
            (Printf.sprintf "device id mismatch: recovered %S, roster has %S" id
               d.id)
      in
      (* Health.restore re-validates every edge against the declared
         relation — an illegal recovered history is rejected here. *)
      let* () = Health.restore d.machine hist in
      let* () =
        if Health.state d.machine = current then Ok ()
        else Error "recovered health state does not match its history"
      in
      let* () = Breaker.restore d.brk brk in
      let* () = Rtt.restore d.rtt rtt in
      let local_deadline, probation_clean, remediations, remediated, detected =
        scalars
      in
      let pending_gap, pending_tampered = pendings in
      d.local_deadline <- local_deadline;
      d.probation_clean <- probation_clean;
      d.remediations <- remediations;
      d.remediated <- remediated;
      d.detected_round <- (if detected < 0 then None else Some detected);
      d.pending_gap <- pending_gap;
      d.pending_tampered <- pending_tampered;
      Ok ()

let serialize_globals t =
  let w = C.writer () in
  C.i64 w t.round_no;
  C.u8 w (if t.converged then 1 else 0);
  C.i64 w t.attestations;
  C.i64 w t.timeouts;
  C.i64 w t.probes_blocked;
  C.i64 w t.remediation_pushes;
  C.contents w

let restore_globals t b =
  match
    let r = C.reader b in
    let round_no = C.read_i64 r in
    let converged = C.read_u8 r <> 0 in
    let attestations = C.read_i64 r in
    let timeouts = C.read_i64 r in
    let probes_blocked = C.read_i64 r in
    let remediation_pushes = C.read_i64 r in
    C.expect_end r;
    (round_no, converged, attestations, timeouts, probes_blocked, remediation_pushes)
  with
  | exception C.Corrupt msg -> Error msg
  | round_no, converged, attestations, timeouts, probes_blocked, pushes ->
      t.round_no <- round_no;
      t.converged <- converged;
      t.attestations <- attestations;
      t.timeouts <- timeouts;
      t.probes_blocked <- probes_blocked;
      t.remediation_pushes <- pushes;
      Ok ()

let state_magic = "RSUP1"

let serialize t =
  let w = C.writer () in
  C.str w state_magic;
  C.bytes w (serialize_globals t);
  C.i64 w (Array.length t.roster);
  Array.iter (fun d -> C.bytes w (serialize_device d)) t.roster;
  C.contents w

let state_digest t = Printf.sprintf "%08x" (Ra_crypto.Crc32.digest (serialize t))

let load t b =
  match
    let r = C.reader b in
    if C.read_str r <> state_magic then C.fail "bad supervisor state magic";
    let g = C.read_bytes r in
    let n = C.read_i64 r in
    if n <> Array.length t.roster then
      C.fail
        (Printf.sprintf "roster size mismatch: state has %d, supervisor has %d" n
           (Array.length t.roster));
    let blobs = Array.init n (fun _ -> C.read_bytes r) in
    C.expect_end r;
    (g, blobs)
  with
  | exception C.Corrupt msg -> Error msg
  | g, blobs ->
      let ( let* ) = Result.bind in
      let* () = restore_globals t g in
      let n = Array.length t.roster in
      let rec devices i =
        if i = n then Ok ()
        else
          let* () = restore_device t.roster.(i) blobs.(i) in
          devices (i + 1)
      in
      let* () = devices 0 in
      if t.journal <> None then
        t.last_blobs <- Array.map serialize_device t.roster;
      Ok ()

(* --- journal emission ---------------------------------------------------- *)

let jemit t e =
  match t.journal with None -> () | Some j -> Ra_journal.Journal.append j e

(* WAL discipline: the edge event is appended before the in-memory apply.
   [Health.apply] absorbs illegal causes silently, so only causes the
   relation declares from the current state produce a record. *)
let journal_apply t d cause =
  (match t.journal with
  | None -> ()
  | Some _ -> (
      match Health.legal (Health.state d.machine) cause with
      | None -> ()
      | Some to_ ->
          jemit t
            (E.make "edge"
               [
                 ("dev", E.S d.id);
                 ("round", E.I t.round_no);
                 ("from", E.S (Health.state_to_string (Health.state d.machine)));
                 ("cause", E.S (Health.cause_to_string cause));
                 ("to", E.S (Health.state_to_string to_));
               ])));
  ignore (Health.apply d.machine ~round:t.round_no cause)

(* Breaker methods mutate the phase internally; journal the transition by
   observing the phase across the call. *)
let with_breaker t d f =
  let before = Breaker.phase d.brk in
  let result = f () in
  let after = Breaker.phase d.brk in
  if before <> after then
    jemit t
      (E.make "breaker"
         [
           ("dev", E.S d.id);
           ("round", E.I t.round_no);
           ("from", E.S (Breaker.phase_to_string before));
           ("to", E.S (Breaker.phase_to_string after));
         ]);
  result

let note_detection t d =
  if d.detected_round = None then begin
    d.detected_round <- Some t.round_no;
    jemit t (E.make "detect" [ ("dev", E.S d.id); ("round", E.I t.round_no) ])
  end

let create ?(config = default_config) ?journal fleet =
  (* Fleet devices all run the same release, so their engines share a PRNG
     seed; jitter drawn from them would be identical fleet-wide. Split each
     breaker's stream from one supervisor root instead — sequentially, in
     roster order, before any fan-out, so streams are decorrelated across
     devices yet bit-identical across runs and [jobs] values. *)
  let jitter_root = Prng.create ~seed:0x5c0bb1e in
  let roster =
    Array.of_list
      (List.map
         (fun id ->
           let device = Fleet.device fleet id in
           let rng = Prng.split jitter_root in
           {
             id;
             device;
             verifier = Fleet.verifier_for fleet id;
             machine = Health.create ();
             brk = Breaker.create ~config:config.breaker ~rng ();
             rtt =
               Rtt.create ~initial_rto:(Timebase.s 1) ~min_rto:(Timebase.ms 50)
                 ~max_rto:config.session_max_timeout ();
             channel = { Channel.ideal with Channel.delay = config.net_delay };
             local_deadline = Engine.now device.Device.engine;
             probation_clean = 0;
             remediations = 0;
             remediated = false;
             detected_round = None;
             pending_gap = false;
             pending_tampered = false;
           })
         (Fleet.enrolled fleet))
  in
  let by_id = Hashtbl.create (Array.length roster) in
  Array.iter (fun d -> Hashtbl.replace by_id d.id d) roster;
  let t =
    {
      config;
      roster;
      by_id;
      store = Fleet.store fleet;
      round_no = 0;
      converged = false;
      attestations = 0;
      timeouts = 0;
      probes_blocked = 0;
      remediation_pushes = 0;
      journal;
      last_blobs = [||];
    }
  in
  if journal <> None then t.last_blobs <- Array.map serialize_device roster;
  t

let attach_journal t j =
  t.journal <- Some j;
  (* re-baseline the delta tracking at the attach point *)
  t.last_blobs <- Array.map serialize_device t.roster

let converged t = t.converged

let find t id =
  match Hashtbl.find_opt t.by_id id with
  | Some d -> d
  | None -> raise Not_found

let set_channel t id channel = (find t id).channel <- channel

let health t id = Health.state (find t id).machine

let machine t id = (find t id).machine

let breaker t id = (find t id).brk

let note_gap_audit t id audit =
  let d = find t id in
  if audit.Erasmus.audit_tampered > 0 then d.pending_tampered <- true;
  let gap_width =
    List.fold_left (fun a (lo, hi) -> a + hi - lo + 1) 0 audit.Erasmus.gaps
  in
  if gap_width > t.config.gap_allowance then d.pending_gap <- true;
  (* External evidence is journaled for the audit trail. It is an input,
     not a derived fact, so a journal containing gap audits replays only
     if the replayer re-feeds them — fleet campaigns do not use them. *)
  jemit t
    (E.make "gap-audit"
       [
         ("dev", E.S d.id);
         ("round", E.I t.round_no);
         ("tampered", E.I audit.Erasmus.audit_tampered);
         ("gap", E.I gap_width);
       ]);
  (* fresh external evidence re-opens a converged fleet *)
  if d.pending_tampered || d.pending_gap then t.converged <- false

let rounds_run t = t.round_no

(* A quarantined device is worth a(nother) update push only when it got
   there through verification evidence — an unreachable or flapping device
   cannot be reflashed over a link that does not answer. *)
let remediable t d =
  Health.state d.machine = Health.Quarantined
  && d.remediations < t.config.remediation_attempts
  && (match Health.quarantine_reason d.machine with
     | Some (Health.Isolated | Health.Update_failed | Health.Probation_failed
            | Health.Verdict_tampered) ->
       true
     | Some _ | None -> false)

let settled t d =
  match Health.state d.machine with
  | Health.Healthy -> true
  | Health.Quarantined -> not (remediable t d)
  | _ -> false

(* --- round phases -------------------------------------------------------- *)

type action = Advance | Attest | Remediate

type exec_result =
  | Nothing
  | Session of Reliable_protocol.result option
  | Remediation of Code_update.outcome option

let plan t d =
  let apply c = journal_apply t d c in
  (* externally supplied evidence (ERASMUS collection audits) first *)
  if d.pending_tampered then begin
    d.pending_tampered <- false;
    d.pending_gap <- false;
    note_detection t d;
    apply Health.Verdict_tampered
  end;
  if d.pending_gap then begin
    d.pending_gap <- false;
    apply Health.Gap_audit
  end;
  (* flap damping: a device that keeps churning through states gets
     quarantined rather than looping forever — the no-livelock backstop *)
  if
    Health.transitions d.machine >= t.config.flap_threshold
    && Health.state d.machine <> Health.Quarantined
  then apply Health.Flapping;
  let now = Engine.now d.device.Device.engine in
  match Health.state d.machine with
  | Health.Compromised ->
    apply Health.Isolated;
    Advance
  | Health.Quarantined -> if remediable t d then Remediate else Advance
  | Health.Remediating ->
    (* defensive: remediation resolves within its round *)
    Advance
  | Health.Unreachable ->
    if Breaker.exhausted d.brk then begin
      apply Health.Probe_exhausted;
      Advance
    end
    else if with_breaker t d (fun () -> Breaker.allow d.brk ~now) then Attest
    else begin
      t.probes_blocked <- t.probes_blocked + 1;
      Advance
    end
  | Health.Healthy | Health.Suspect | Health.Probation ->
    if with_breaker t d (fun () -> Breaker.allow d.brk ~now) then Attest
    else begin
      t.probes_blocked <- t.probes_blocked + 1;
      Advance
    end

let session_config t d =
  {
    Reliable_protocol.mp = t.config.mp;
    channel = d.channel;
    auth_time = Timebase.us 200;
    retry_timeout = Timebase.s 1;
    max_attempts = t.config.session_attempts;
    backoff = 1.6;
    backoff_jitter = 0.1;
    max_timeout = t.config.session_max_timeout;
  }

(* Everything here touches only [d]'s own simulation (plus the fleet's
   mutex-guarded digest store), so it is safe — and deterministic — to run
   from any pool domain. *)
let execute t d action =
  d.local_deadline <- Timebase.add d.local_deadline t.config.round_budget;
  match action with
  | Advance ->
    Device.run ~until:d.local_deadline d.device;
    Nothing
  | Attest ->
    let result = ref None in
    Reliable_protocol.run d.device d.verifier (session_config t d) ~rtt:d.rtt
      ~on_done:(fun r -> result := Some r)
      ();
    Device.run ~until:d.local_deadline d.device;
    Session !result
  | Remediate ->
    let out = ref None in
    Code_update.run d.device t.config.update
      ~new_seed:d.device.Device.config.Device.seed
      ~on_done:(fun o -> out := Some o)
      ();
    Device.run ~until:d.local_deadline d.device;
    Remediation !out

let outcome_of_session = function
  | Some { Reliable_protocol.verdict = Some Verifier.Clean; _ } -> Clean
  | Some { Reliable_protocol.verdict = Some Verifier.Tampered; _ } -> Tampered
  | Some { Reliable_protocol.verdict = None; _ } | None -> Timeout

let apply_result t d result =
  let apply c = journal_apply t d c in
  match result with
  | Nothing -> ()
  | Session r ->
    t.attestations <- t.attestations + 1;
    let oc = outcome_of_session r in
    jemit t
      (E.make "attest"
         [
           ("dev", E.S d.id);
           ("round", E.I t.round_no);
           ( "outcome",
             E.S
               (match oc with
               | Clean -> "clean"
               | Tampered -> "tampered"
               | Timeout -> "timeout") );
         ]);
    (match oc with
    | Clean ->
      with_breaker t d (fun () -> Breaker.record_success d.brk);
      (match Health.state d.machine with
      | Health.Probation ->
        d.probation_clean <- d.probation_clean + 1;
        if d.probation_clean >= t.config.probation_rounds then
          apply Health.Probation_passed
      | _ -> apply Health.Verified_clean)
    | Tampered ->
      with_breaker t d (fun () -> Breaker.record_success d.brk);
      note_detection t d;
      apply Health.Verdict_tampered
    | Timeout ->
      t.timeouts <- t.timeouts + 1;
      with_breaker t d (fun () ->
          Breaker.record_failure d.brk
            ~now:(Engine.now d.device.Device.engine)
            ~rto_hint:(Rtt.rto d.rtt));
      apply Health.Report_timeout;
      if Breaker.phase d.brk = Breaker.Open then apply Health.Breaker_open)
  | Remediation out ->
    t.remediation_pushes <- t.remediation_pushes + 1;
    d.remediations <- d.remediations + 1;
    let ok =
      match out with
      | Some o ->
        o.Code_update.erasure_proof_ok
        && o.Code_update.update_verdict = Verifier.Clean
        && not o.Code_update.malware_survived
      | None -> false
    in
    jemit t
      (E.make "remedy"
         [
           ("dev", E.S d.id);
           ("round", E.I t.round_no);
           ("ok", E.I (if ok then 1 else 0));
         ]);
    apply Health.Update_pushed;
    if ok then begin
      d.probation_clean <- 0;
      d.remediated <- true;
      apply Health.Update_verified
    end
    else apply Health.Update_failed

let total_transitions t =
  Array.fold_left (fun acc d -> acc + Health.transitions d.machine) 0 t.roster

(* Round-boundary journaling: per-device state deltas since the last
   boundary, then a "round-end" carrying the globals, the state digest
   and the shared-store counters — the provenance chain for every digest
   the round consumed. Commit (fsync) happens exactly here, so a whole
   round is the acknowledgement unit, and recovery rolls back to the
   last completed round. *)
let journal_round_end t =
  match t.journal with
  | None -> ()
  | Some j ->
    Array.iteri
      (fun i d ->
        let blob = serialize_device d in
        if not (Bytes.equal blob t.last_blobs.(i)) then begin
          jemit t
            (E.make "dstate" [ ("i", E.I i); ("dev", E.S d.id); ("s", E.B blob) ]);
          t.last_blobs.(i) <- blob
        end)
      t.roster;
    jemit t
      (E.make "round-end"
         [
           ("round", E.I t.round_no); (* = completed-round count *)
           ("g", E.B (serialize_globals t));
           ("digest", E.S (state_digest t));
           ("store-lookups", E.I (Ra_cache.Store.lookups t.store));
           ("store-hashed", E.I (Ra_cache.Store.computed t.store));
           ("store-distinct", E.I (Ra_cache.Store.distinct_contents t.store));
         ]);
    Ra_journal.Journal.commit j;
    if Ra_journal.Journal.want_snapshot j ~round:t.round_no then
      Ra_journal.Journal.snapshot j ~round:t.round_no ~state:(serialize t)

let round ?jobs ?shards t =
  jemit t (E.make "round-start" [ ("round", E.I t.round_no) ]);
  let transitions0 = total_transitions t in
  let timeouts0 = t.timeouts in
  (* All journal records are emitted from the sequential plan and apply
     phases, in roster order — never from the parallel execute phase — so
     the journal byte stream is identical for every [jobs] value.
     [shards] groups the execute phase into that many contiguous chunks
     (one pool task each) instead of one task per device; per-device
     results land by index either way, so it moves scheduling overhead
     only. *)
  let n = Array.length t.roster in
  let chunk =
    match shards with
    | None -> 1
    | Some s -> max 1 ((n + max 1 s - 1) / max 1 s)
  in
  let actions = Array.map (fun d -> plan t d) t.roster in
  let results =
    Ra_parallel.parallel_init ?jobs ~chunk n (fun i ->
        execute t t.roster.(i) actions.(i))
  in
  Array.iteri (fun i d -> apply_result t d results.(i)) t.roster;
  t.round_no <- t.round_no + 1;
  t.converged <-
    Array.for_all (fun d -> settled t d) t.roster
    && total_transitions t = transitions0
    && t.timeouts = timeouts0;
  journal_round_end t

(* --- report -------------------------------------------------------------- *)

type report = {
  rounds : int;
  converged : bool;
  healthy : Fleet.device_id list;
  quarantined : (Fleet.device_id * Health.cause) list;
  unsettled : Fleet.device_id list;
  detections : (Fleet.device_id * int) list;
  remediated : Fleet.device_id list;
  attestations : int;
  timeouts : int;
  probes_blocked : int;
  remediation_pushes : int;
  transition_counts : ((Health.state * Health.cause * Health.state) * int) list;
  counter_digest : string;
}

let report t =
  let healthy = ref [] and quarantined = ref [] and unsettled = ref [] in
  let detections = ref [] and remediated = ref [] in
  let counts = Hashtbl.create 32 in
  Array.iter
    (fun d ->
      (match Health.state d.machine with
      | Health.Healthy -> healthy := d.id :: !healthy
      | Health.Quarantined ->
        let reason =
          Option.value ~default:Health.Isolated (Health.quarantine_reason d.machine)
        in
        quarantined := (d.id, reason) :: !quarantined
      | _ -> unsettled := d.id :: !unsettled);
      (match d.detected_round with
      | Some r -> detections := (d.id, r) :: !detections
      | None -> ());
      if d.remediated then remediated := d.id :: !remediated;
      List.iter
        (fun tr ->
          let key = (tr.Health.from_, tr.Health.cause, tr.Health.to_) in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        (Health.history d.machine))
    t.roster;
  (* The digest below concatenates these edges in list order, so bucket
     order must never escape the fold: sort at the fold site (ralint rule
     D3 enforces exactly this shape — fold directly under an explicit
     sort), keyed on the rendered names for a stable, readable order. *)
  let transition_counts =
    List.sort
      (fun ((f1, c1, t1), _) ((f2, c2, t2), _) ->
        compare
          ( Health.state_to_string f1,
            Health.cause_to_string c1,
            Health.state_to_string t1 )
          ( Health.state_to_string f2,
            Health.cause_to_string c2,
            Health.state_to_string t2 ))
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  let digest =
    let edges =
      String.concat ";"
        (List.map
           (fun ((f, c, to_), n) ->
             Printf.sprintf "%s>%s/%s=%d" (Health.state_to_string f)
               (Health.state_to_string to_) (Health.cause_to_string c) n)
           transition_counts)
    in
    Printf.sprintf
      "rounds=%d converged=%b healthy=%d quarantined=%d unsettled=%d \
       detections=%d remediated=%d attested=%d timeouts=%d blocked=%d \
       pushes=%d edges[%s]"
      t.round_no t.converged (List.length !healthy) (List.length !quarantined)
      (List.length !unsettled) (List.length !detections)
      (List.length !remediated) t.attestations t.timeouts t.probes_blocked
      t.remediation_pushes edges
  in
  {
    rounds = t.round_no;
    converged = t.converged;
    healthy = List.rev !healthy;
    quarantined = List.rev !quarantined;
    unsettled = List.rev !unsettled;
    detections = List.rev !detections;
    remediated = List.rev !remediated;
    attestations = t.attestations;
    timeouts = t.timeouts;
    probes_blocked = t.probes_blocked;
    remediation_pushes = t.remediation_pushes;
    transition_counts;
    counter_digest = digest;
  }

let run ?jobs ?shards ?(min_rounds = 0) ?(max_rounds = 24) (t : t) =
  let rec loop () =
    if (t.converged && t.round_no >= min_rounds) || t.round_no >= max_rounds then
      report t
    else begin
      round ?jobs ?shards t;
      loop ()
    end
  in
  loop ()

(* --- crash recovery ------------------------------------------------------ *)

module Recovery = struct
  (* Recovery is deliberately redundant: the journal carries both the
     event-by-event story (edges, attest outcomes) and, at each round
     boundary, the materialized per-device state deltas. [reconstruct]
     rebuilds the full state from snapshot + deltas without executing
     anything; the resume path in Ra_experiments.Fleet_chaos also
     re-executes the journaled prefix in verify mode and insists both
     roads end at the same bytes. *)

  let round_end_tag = "round-end"

  let completed_rounds events =
    let keep = ref 0 and rounds = ref 0 in
    Array.iteri
      (fun i e ->
        if e.E.tag = round_end_tag then begin
          keep := i + 1;
          match E.find_i e "round" with
          | Some r -> rounds := r
          | None -> ()
        end)
      events;
    (!rounds, !keep)

  let reconstruct ~base ~after events =
    match
      let r = C.reader base in
      if C.read_str r <> state_magic then C.fail "bad supervisor state magic";
      let globals = ref (C.read_bytes r) in
      let n = C.read_i64 r in
      if n < 0 || n > 10_000_000 then C.fail "implausible roster size";
      let blobs = Array.init n (fun _ -> C.read_bytes r) in
      C.expect_end r;
      Array.iteri
        (fun i e ->
          if i >= after then
            match e.E.tag with
            | "dstate" ->
              let idx = E.geti e "i" in
              if idx < 0 || idx >= n then
                C.fail (Printf.sprintf "dstate index %d out of range" idx);
              blobs.(idx) <- E.getb e "s"
            | tag when tag = round_end_tag -> globals := E.getb e "g"
            | _ -> ())
        events;
      let w = C.writer () in
      C.str w state_magic;
      C.bytes w !globals;
      C.i64 w n;
      Array.iter (C.bytes w) blobs;
      C.contents w
    with
    | b -> Ok b
    | exception C.Corrupt msg -> Error msg
end
