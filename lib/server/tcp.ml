open Ra_core

(* The only file in the tree that touches sockets and the wall clock (the
   ralint Unix-confinement rule pins it here). Deliberately thin: every
   decision — shed or accept, dedup, journal, verdict — lives in Core;
   this file only moves bytes through select(2) and keeps one slow client
   from stalling the rest:

   - all accepted fds are non-blocking; reads happen only on
     select-readable fds, so a connection that stops mid-frame just
     parks its half-frame in its Reader;
   - responses go through a per-connection out-buffer, so a client that
     stops *reading* absorbs its own backpressure (and is disconnected at
     a buffer cap) instead of blocking the accept loop in write(2);
   - one select round is one Core round: every frame read from every
     readable connection goes to Core.handle_round together, so the round
     costs one journal commit (one fsync) however many reports it carries,
     and its Acks exist only after that commit;
   - the out-buffers are flushed once per select round, after the round's
     responses were queued: a pipelining client gets its Acks in one
     write(2) and one wakeup, not one per report, so throughput does not
     follow the scheduler's wakeup latency. *)

let chunk_size = 8192
let out_cap = 4 * 1024 * 1024

type tconn = {
  fd : Unix.file_descr;
  reader : Frame.Reader.t;
  mutable out : Bytes.t;  (* unsent response bytes *)
  mutable alive : bool;
}

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let flush_conn c =
  let n = Bytes.length c.out in
  if n > 0 then
    match Unix.write c.fd c.out 0 n with
    | written -> c.out <- Bytes.sub c.out written (n - written)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c

let queue_response c payload =
  c.out <- Bytes.cat c.out (Frame.seal_stream payload);
  if Bytes.length c.out > out_cap then close_conn c

let serve ?(host = "127.0.0.1") ?jobs ?(config = Core.default_config)
    ?(fresh = false) ~port ~dir () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let disk = Ra_journal.Disk.file ~dir in
  let has_journal = disk.Ra_journal.Disk.read Ra_journal.Journal.wal_file <> None in
  let core =
    if (not fresh) && has_journal then
      match Core.recover disk with
      | Ok core -> core
      | Error e ->
          Printf.eprintf "ra-server: recovery failed: %s\n%!" e;
          exit 1
    else Core.create ~config disk
  in
  let cfg = Core.config core in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listen_fd 64;
  let c0 = Core.counters core in
  Printf.printf
    "ra-server: listening on %s:%d (devices=%d seed=%d capacity=%d recovered=%d)\n%!"
    host port cfg.Core.devices cfg.Core.seed cfg.Core.capacity c0.Wire.recovered;
  let conns = ref [] in
  let buf = Bytes.create chunk_size in
  (* The frames one readable connection holds now, oldest first. *)
  let read_frames c =
    match Unix.read c.fd buf 0 chunk_size with
    | 0 ->
        close_conn c;
        []
    | n ->
        Frame.Reader.feed c.reader ~len:n buf;
        let frames = ref [] in
        let collect payload =
          frames := (c, payload) :: !frames;
          true
        in
        if Result.is_error (Frame.Reader.drain c.reader collect) then close_conn c;
        List.rev !frames
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> []
    | exception Unix.Unix_error _ ->
        close_conn c;
        []
  in
  let rec loop () =
    conns := List.filter (fun c -> c.alive) !conns;
    let rds = listen_fd :: List.map (fun c -> c.fd) !conns in
    let wrs =
      List.filter_map
        (fun c -> if Bytes.length c.out > 0 then Some c.fd else None)
        !conns
    in
    let readable, _, _ =
      match Unix.select rds wrs [] 0.05 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem listen_fd readable then begin
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          conns :=
            { fd; reader = Frame.Reader.create (); out = Bytes.empty; alive = true }
            :: !conns
      | exception Unix.Unix_error _ -> ()
    end;
    let arrived =
      List.concat_map
        (fun c -> if c.alive && List.mem c.fd readable then read_frames c else [])
        !conns
    in
    (* the round: one commit for every frame read, no Core call (so no
       fsync) when nothing arrived *)
    if arrived <> [] then begin
      let responses =
        Core.handle_round ?jobs core (Array.of_list (List.map snd arrived))
      in
      List.iteri
        (fun i (c, _) -> if c.alive then queue_response c responses.(i))
        arrived
    end;
    (* this round's responses, plus whatever a backed-up socket now takes *)
    List.iter (fun c -> if c.alive && Bytes.length c.out > 0 then flush_conn c) !conns;
    if Core.pending core > 0 then ignore (Core.drain ?jobs core);
    loop ()
  in
  loop ()

(* --- client side --------------------------------------------------------- *)

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let send_frame fd payload =
  let frame = Frame.seal_stream payload in
  let n = Bytes.length frame in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write fd frame off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

(* Read whole frames off [fd] until the reader yields one, with an
   absolute deadline. *)
let read_frame fd reader ~deadline =
  let buf = Bytes.create chunk_size in
  let rec go () =
    match Frame.Reader.next reader with
    | Frame.Reader.Frame payload -> Ok payload
    | Frame.Reader.Corrupt msg -> Error ("stream corrupt: " ^ msg)
    | Frame.Reader.Await ->
        let timeout = deadline -. Unix.gettimeofday () in
        if timeout <= 0. then Error "timeout"
        else (
          match Unix.select [ fd ] [] [] timeout with
          | [], _, _ -> Error "timeout"
          | _ -> (
              match Unix.read fd buf 0 chunk_size with
              | 0 -> Error "connection closed"
              | n ->
                  Frame.Reader.feed reader ~len:n buf;
                  go ()
              | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let request ?(host = "127.0.0.1") ?(timeout_s = 5.) ~port req =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match connect ~host ~port with
  | Error e -> Error ("connect: " ^ e)
  | Ok fd ->
      let finish r =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        r
      in
      let deadline = Unix.gettimeofday () +. timeout_s in
      finish
        (match send_frame fd (Wire.encode_request req) with
        | Error e -> Error ("send: " ^ e)
        | Ok () -> (
            match read_frame fd (Frame.Reader.create ()) ~deadline with
            | Error e -> Error e
            | Ok payload -> Wire.decode_response payload))

(* --- the load-generator campaign over real sockets ----------------------- *)

type campaign = {
  acked : int;
  retries : int;
  busy : int;
  reconnects : int;
  stats : Wire.counters;
  root : Bytes.t;
  tampered : int;
  clean : int;
  wall_s : float;
  reports_per_s : float;
}

type lclient = {
  session : Session.t;
  mutable fd : Unix.file_descr option;
  mutable reader : Frame.Reader.t;
  mutable reconnects : int;
}

let drop_conn cl =
  (match cl.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  cl.fd <- None;
  cl.reader <- Frame.Reader.create ()

(* Every retry decision is Session's; this shell reads the clock, moves
   bytes, and reports a dead or refused connection as lost. Session time
   is nanoseconds since the campaign started. *)
let run_campaign ?(host = "127.0.0.1") ?(give_up_after_s = 180.) ~port ~devices
    ~seed ~reports_per_device () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let plan = Loadgen.plan ~devices ~seed ~reports_per_device in
  let started = Unix.gettimeofday () in
  let give_up = started +. give_up_after_s in
  let now_ns () = int_of_float ((Unix.gettimeofday () -. started) *. 1e9) in
  let clients =
    Array.map
      (fun todo ->
        let rtt =
          Rtt.create
            ~initial_rto:(Ra_sim.Timebase.ms 250)
            ~min_rto:(Ra_sim.Timebase.ms 50)
            ~max_rto:(Ra_sim.Timebase.s 3) ()
        in
        {
          session = Session.create ~tick_ns:1 rtt todo;
          fd = None;
          reader = Frame.Reader.create ();
          reconnects = 0;
        })
      (Session.per_device ~devices plan)
  in
  let lost now cl =
    drop_conn cl;
    Session.lost cl.session ~now
  in
  let buf = Bytes.create chunk_size in
  let transmit now cl item =
    Session.sent cl.session ~now;
    let conn =
      match cl.fd with
      | Some fd -> Ok fd
      | None -> (
          match connect ~host ~port with
          | Ok fd ->
              cl.fd <- Some fd;
              cl.reader <- Frame.Reader.create ();
              Ok fd
          | Error _ as e ->
              (* server down (e.g. mid kill-gate): the session backs off
                 and retries — outliving the restart is the whole point *)
              cl.reconnects <- cl.reconnects + 1;
              e)
    in
    match Result.bind conn (fun fd -> send_frame fd (Loadgen.submit_payload item)) with
    | Ok () -> ()
    | Error _ -> lost now cl
  in
  let absorb now cl =
    match cl.fd with
    | None -> ()
    | Some fd -> (
        match Unix.read fd buf 0 chunk_size with
        | 0 -> lost now cl
        | n ->
            Frame.Reader.feed cl.reader ~len:n buf;
            let receive payload = Session.receive cl.session ~now payload; true in
            if Result.is_error (Frame.Reader.drain cl.reader receive) then lost now cl
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> lost now cl)
  in
  let all_done () = Array.for_all (fun cl -> Session.finished cl.session) clients in
  let rec loop () =
    if all_done () then Ok ()
    else if Unix.gettimeofday () > give_up then
      Error
        (Printf.sprintf "campaign did not converge within %.0f s" give_up_after_s)
    else begin
      let now = now_ns () in
      Array.iter
        (fun cl ->
          match Session.next cl.session ~now with
          | Some item -> transmit now cl item
          | None -> ())
        clients;
      let fds =
        Array.to_list clients
        |> List.filter_map (fun cl ->
               match cl.fd with Some fd -> Some (fd, cl) | None -> None)
      in
      (match Unix.select (List.map fst fds) [] [] 0.02 with
      | readable, _, _ ->
          let now = now_ns () in
          List.iter
            (fun (fd, cl) -> if List.mem fd readable then absorb now cl)
            fds
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  match loop () with
  | Error _ as e -> e
  | Ok () ->
      Array.iter (fun cl -> drop_conn cl) clients;
      let wall_s = Unix.gettimeofday () -. started in
      let q req =
        match request ~host ~port req with
        | Ok resp -> Ok resp
        | Error e -> Error ("final query failed: " ^ e)
      in
      let ( let* ) = Result.bind in
      let* stats =
        match q Wire.Counters with
        | Ok (Wire.Stats s) -> Ok s
        | Ok r -> Error ("unexpected counters response: " ^ Wire.response_to_string r)
        | Error _ as e -> e
      in
      let* root =
        match q Wire.Fleet_root with
        | Ok (Wire.Root r) -> Ok r
        | Ok r -> Error ("unexpected root response: " ^ Wire.response_to_string r)
        | Error _ as e -> e
      in
      let* health =
        match q Wire.Fleet_health with
        | Ok (Wire.Health h) -> Ok h
        | Ok r -> Error ("unexpected health response: " ^ Wire.response_to_string r)
        | Error _ as e -> e
      in
      let sum f = Array.fold_left (fun a cl -> a + f cl) 0 clients in
      let acked = sum (fun cl -> Session.acked cl.session) in
      let count state =
        List.fold_left (fun a (_, s) -> if s = state then a + 1 else a) 0 health
      in
      Ok
        {
          acked;
          retries = sum (fun cl -> Session.retries cl.session);
          busy = sum (fun cl -> Session.busy cl.session);
          reconnects = sum (fun cl -> cl.reconnects);
          stats;
          root;
          tampered = count "tampered";
          clean = count "clean";
          wall_s;
          reports_per_s = (if wall_s > 0. then float_of_int acked /. wall_s else 0.);
        }

let render_campaign (c : campaign) =
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  p "loadgen: acked=%d retries=%d busy=%d reconnects=%d in %.2f s (%.0f reports/s)"
    c.acked c.retries c.busy c.reconnects c.wall_s c.reports_per_s;
  p "  server: accepted=%d shed=%d deduped=%d rejected=%d recovered=%d commits=%d"
    c.stats.Wire.accepted c.stats.Wire.shed c.stats.Wire.deduped
    c.stats.Wire.rejected c.stats.Wire.recovered c.stats.Wire.commits;
  p "  fleet:  clean=%d tampered=%d root=%s" c.clean c.tampered
    (Ra_crypto.Bytesutil.to_hex c.root);
  Buffer.contents b
