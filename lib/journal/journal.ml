let wal_file = "wal"

let snap_tmp = "snap.tmp"

let snap_prefix = "snap-"

let snap_name round = Printf.sprintf "%s%08d" snap_prefix round

let snapshot_marker = "snapshot"

type record_state = {
  disk : Disk.t;
  snapshot_every : int;
  mutable next_seq : int;
}

type verify_state = {
  recorded : Event.t array;
  mutable pos : int;
  mutable divergence : string option;
}

type t = Record of record_state | Verify of verify_state

let create ?(snapshot_every = 3) disk =
  List.iter
    (fun f ->
      if
        f = wal_file || f = snap_tmp
        || String.length f >= String.length snap_prefix
           && String.sub f 0 (String.length snap_prefix) = snap_prefix
      then disk.Disk.remove f)
    (disk.Disk.list ());
  disk.Disk.write wal_file Bytes.empty;
  disk.Disk.sync wal_file;
  disk.Disk.sync_dir ();
  Record { disk; snapshot_every; next_seq = 1 }

let skip_markers v =
  while
    v.pos < Array.length v.recorded
    && (v.recorded.(v.pos)).Event.tag = snapshot_marker
  do
    v.pos <- v.pos + 1
  done

let append t ev =
  match t with
  | Record r ->
      r.disk.Disk.append wal_file (Wal.encode ~seq:r.next_seq (Event.encode ev));
      r.next_seq <- r.next_seq + 1
  | Verify v ->
      if v.divergence = None then begin
        skip_markers v;
        if v.pos >= Array.length v.recorded then
          v.divergence <-
            Some
              (Printf.sprintf "replay emitted an event past the recorded log: %s"
                 (Event.to_string ev))
        else begin
          let expected = v.recorded.(v.pos) in
          if not (Event.equal expected ev) then
            v.divergence <-
              Some
                (Printf.sprintf "divergence at event %d:\n  recorded: %s\n  replayed: %s"
                   v.pos
                   (Event.to_string expected)
                   (Event.to_string ev))
          else v.pos <- v.pos + 1
        end
      end

let commit t =
  match t with
  | Record r -> r.disk.Disk.sync wal_file
  | Verify _ -> ()

let want_snapshot t ~round =
  match t with
  | Record r -> round > 0 && round mod r.snapshot_every = 0
  | Verify _ -> false

let snapshot t ~round ~state =
  match t with
  | Verify _ -> ()
  | Record r ->
      (* the events the snapshot claims to cover must be durable first *)
      commit t;
      let covered = r.next_seq - 1 in
      let w = Codec.writer () in
      Codec.i64 w round;
      Codec.i64 w covered;
      Codec.bytes w state;
      r.disk.Disk.write snap_tmp (Frame.seal (Codec.contents w));
      r.disk.Disk.sync snap_tmp;
      r.disk.Disk.rename snap_tmp (snap_name round);
      r.disk.Disk.sync_dir ();
      append t
        (Event.make snapshot_marker
           [ ("round", Event.I round); ("upto", Event.I covered) ]);
      commit t

let decode_snapshot buf =
  Result.bind (Frame.open_ buf) (fun payload ->
      match
        let r = Codec.reader payload in
        let round = Codec.read_i64 r in
        let covered = Codec.read_i64 r in
        let state = Codec.read_bytes r in
        Codec.expect_end r;
        (round, covered, state)
      with
      | s -> Ok s
      | exception Codec.Corrupt msg -> Error msg)

type recovery = {
  events : Event.t array;
  offsets : int array;
  snapshot : (int * int * Bytes.t) option;
  damage : string option;
}

let recover disk =
  match disk.Disk.read wal_file with
  | None -> Error "no journal found (missing wal file)"
  | Some buf ->
      let scan = Wal.scan buf in
      (* decode; an undecodable payload (CRC-valid but semantically
         damaged) also truncates the accepted prefix *)
      let events = ref [] in
      let damage = ref scan.Wal.damage in
      let rec decode i = function
        | [] -> i
        | payload :: rest -> (
            match Event.decode payload with
            | Ok e ->
                events := e :: !events;
                decode (i + 1) rest
            | Error msg ->
                damage := Some (Printf.sprintf "record %d undecodable: %s" i msg);
                i)
      in
      let kept = decode 0 scan.Wal.records in
      let events = Array.of_list (List.rev !events) in
      let offsets = Array.sub scan.Wal.offsets 0 kept in
      let snapshot =
        disk.Disk.list ()
        |> List.filter (fun f ->
               String.length f > String.length snap_prefix
               && String.sub f 0 (String.length snap_prefix) = snap_prefix)
        |> List.sort (fun a b -> compare b a) (* newest first *)
        |> List.find_map (fun f ->
               match disk.Disk.read f with
               | None -> None
               | Some buf -> (
                   match decode_snapshot buf with
                   | Ok (round, covered, state) when covered <= Array.length events
                     ->
                       Some (round, covered, state)
                   | _ -> None))
      in
      Ok { events; offsets; snapshot; damage = !damage }

let resume ?(snapshot_every = 3) disk recovery ~keep =
  if keep < 0 || keep > Array.length recovery.events then
    invalid_arg "Journal.resume: keep out of range";
  let good = if keep = 0 then 0 else recovery.offsets.(keep - 1) in
  disk.Disk.truncate wal_file good;
  disk.Disk.sync wal_file;
  Record { disk; snapshot_every; next_seq = keep + 1 }

let restart ?snapshot_every ?validate disk ~keep =
  match recover disk with
  | Error _ as e -> e
  | Ok recovery -> (
      let k = keep recovery in
      if k < 0 || k > Array.length recovery.events then
        Error
          (Printf.sprintf "restart: consistency point %d outside log of %d event(s)"
             k (Array.length recovery.events))
      else
        let checked =
          match validate with
          | None -> Ok ()
          | Some check -> check recovery ~keep:k
        in
        match checked with
        | Error _ as e -> e
        | Ok () -> Ok (recovery, resume ?snapshot_every disk recovery ~keep:k))

let verifier recorded = Verify { recorded; pos = 0; divergence = None }

let verified t =
  match t with
  | Record _ -> Ok ()
  | Verify v -> (
      match v.divergence with
      | Some d -> Error d
      | None ->
          skip_markers v;
          if v.pos = Array.length v.recorded then Ok ()
          else
            Error
              (Printf.sprintf
                 "replay stopped %d event(s) short of the recorded log (next: %s)"
                 (Array.length v.recorded - v.pos)
                 (Event.to_string v.recorded.(v.pos))))

let position t =
  match t with Record r -> r.next_seq - 1 | Verify v -> v.pos
