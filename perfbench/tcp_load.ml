(* tcp: a real Tcp.serve process (jobs 1, Disk.file journal: real fsync)
   over loopback. One client process holds [conns] connections; each acts
   as a gateway that keeps a closed-loop window of [window] pipelined
   Submits in flight and resubmits on Busy. The episode ends with the
   Fleet_root and Counters queries; the root must equal the in-process
   Core root for the same plan. Every episode runs against a fresh server
   and journal, so no episode sees another's reports. *)

open Ra_server

let devices = Ingest.devices
let reports_per_device = Ingest.reports_per_device
let conns = 2
let window = 16
let server_jobs = 1
let timeout_s = 120.

(* The server child: [main.exe --serve PORT DIR DEVICES SEED]. *)
let serve_child ~port ~dir ~devices ~seed =
  Tcp.serve ~jobs:server_jobs ~config:{ Core.devices; seed; capacity = 64 } ~fresh:true
    ~port ~dir ()

type server = { pid : int; port : int; dir : string; out : Unix.file_descr }

let live : server list ref = ref []

let stop s =
  if List.memq s !live then begin
    live := List.filter (fun x -> x != s) !live;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    Unix.close s.out;
    Bench.rm_rf s.dir
  end

let () = at_exit (fun () -> List.iter stop !live)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

(* Spawn the server and wait for its "listening" line. *)
let start ~seed =
  let port = free_port () in
  let dir = Bench.scratch_dir "tcp" in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve"; string_of_int port; dir; string_of_int devices;
         string_of_int seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let s = { pid; port; dir; out = r } in
  live := s :: !live;
  let buf = Bytes.create 256 in
  let deadline = Bench.now () +. 60. in
  let rec await acc =
    if String.contains acc '\n' then acc
    else if Bench.now () > deadline then failwith "tcp: server did not start"
    else
      match Unix.select [ r ] [] [] 1. with
      | [], _, _ -> await acc
      | _ -> (
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> failwith "tcp: server exited before listening"
          | k -> await (acc ^ Bytes.sub_string buf 0 k))
  in
  let line = await "" in
  if not (String.starts_with ~prefix:"ra-server: listening" line) then
    failwith ("tcp: unexpected server banner: " ^ line);
  s

let setup ~seed =
  ignore (Ingest.plan ~seed);
  stop (start ~seed)

(* The root the in-process core reaches on the same plan. *)
let reference_root ~seed plan =
  let _, disk, _ = Tdisk.mem () in
  let core = Core.create ~config:(Ingest.config ~seed) disk in
  Array.iteri
    (fun i (item : Loadgen.item) ->
      ignore
        (Core.handle ~jobs:1 core
           (Wire.Submit { device = item.device; seq = item.seq; report = item.report }));
      if (i + 1) mod Ingest.drain_every = 0 then ignore (Core.drain ~jobs:1 core))
    plan;
  match Core.handle ~jobs:1 core Wire.Fleet_root with
  | Wire.Root r -> r
  | _ -> failwith "tcp: reference core gave no root"

type conn = {
  fd : Unix.file_descr;
  reader : Ra_core.Frame.Reader.t;
  todo : int Queue.t;  (** plan indices never sent *)
  retry : int Queue.t;  (** indices answered Busy *)
  inflight : int Queue.t;  (** sent, in send order (responses arrive in order) *)
}

type stats = {
  mutable acked : int;
  mutable sends : int;
  mutable busy : int;
  mutable reads : int;
  mutable frames : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let write_all fd b =
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Drive the whole plan through the server; latencies are from an item's
   first send to its Ack. *)
let campaign port (plan : Loadgen.item array) latencies st =
  let n = Array.length plan in
  let sent_at = Array.make n nan in
  let cs =
    Array.init conns (fun c ->
        let todo = Queue.create () in
        Array.iteri (fun i _ -> if i mod conns = c then Queue.add i todo) plan;
        { fd = connect port; reader = Ra_core.Frame.Reader.create (); todo;
          retry = Queue.create (); inflight = Queue.create () })
  in
  let buf = Bytes.create 65536 in
  let deadline = Bench.now () +. timeout_s in
  let fill c =
    let out = Buffer.create 4096 in
    while Queue.length c.inflight < window
          && not (Queue.is_empty c.retry && Queue.is_empty c.todo) do
      let i = if Queue.is_empty c.retry then Queue.pop c.todo else Queue.pop c.retry in
      Buffer.add_bytes out (Ra_core.Frame.seal_stream (Loadgen.submit_payload plan.(i)));
      if Float.is_nan sent_at.(i) then sent_at.(i) <- Bench.now ();
      Queue.add i c.inflight;
      st.sends <- st.sends + 1
    done;
    if Buffer.length out > 0 then write_all c.fd (Buffer.to_bytes out)
  in
  let answer c payload =
    let i = Queue.pop c.inflight in
    let item = plan.(i) in
    match Wire.decode_response payload with
    | Ok (Wire.Ack { device; seq }) when device = item.device && seq = item.seq ->
        let t = Bench.now () in
        latencies.(i) <- 1e3 *. (t -. sent_at.(i));
        Trace.record ~rid:(i + 1) "tcp.submit_ack" ~start:sent_at.(i) ~stop:t;
        st.acked <- st.acked + 1
    | Ok (Wire.Busy _) ->
        st.busy <- st.busy + 1;
        Queue.add i c.retry
    | Ok r ->
        Bench.check false "tcp: %s#%d answered %s" item.device item.seq
          (Wire.response_to_string r);
        st.acked <- st.acked + 1
    | Error e -> failwith ("tcp: undecodable response: " ^ e)
  in
  let rec pump c got =
    match Ra_core.Frame.Reader.next c.reader with
    | Ra_core.Frame.Reader.Frame p ->
        answer c p;
        pump c (got + 1)
    | Ra_core.Frame.Reader.Await -> got
    | Ra_core.Frame.Reader.Corrupt e -> failwith ("tcp: corrupt stream: " ^ e)
  in
  Array.iter fill cs;
  while st.acked < n do
    if Bench.now () > deadline then failwith "tcp: campaign timed out";
    let readable, _, _ = Unix.select (Array.to_list (Array.map (fun c -> c.fd) cs)) [] [] 1. in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then begin
          let k = Unix.read c.fd buf 0 (Bytes.length buf) in
          if k = 0 then failwith "tcp: server closed a connection";
          Ra_core.Frame.Reader.feed c.reader ~len:k buf;
          st.reads <- st.reads + 1;
          st.frames <- st.frames + pump c 0;
          fill c
        end)
      cs
  done;
  Array.iter (fun c -> Unix.close c.fd) cs

let query port req =
  match Tcp.request ~timeout_s:60. ~port req with
  | Ok r -> r
  | Error e -> failwith ("tcp: query failed: " ^ e)

let prepare ~seed =
  (* a server that drops a connection fails the run; it must not kill the
     client with SIGPIPE before the at_exit handler stops the server *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let plan = Ingest.plan ~seed in
  let expected = reference_root ~seed plan in
  let n = Array.length plan in
  fun ~traced:_ ->
    let server = start ~seed in
    let latencies = Array.make n nan in
    let st = { acked = 0; sends = 0; busy = 0; reads = 0; frames = 0 } in
    let cpu0 = Bench.cpu_s_of_pid server.pid in
    let (root, stats), win =
      Bench.window (fun () ->
          campaign server.port plan latencies st;
          (query server.port Wire.Fleet_root, query server.port Wire.Counters))
    in
    let server_cpu = Bench.cpu_s_of_pid server.pid -. cpu0 in
    let rss = Bench.peak_rss_mb ~pid:(string_of_int server.pid) () in
    stop server;
    Bench.attempt n;
    (match root with
    | Wire.Root r -> Bench.check (Bytes.equal r expected) "tcp: server root differs from in-process root"
    | r -> Bench.check false "tcp: Fleet_root answered %s" (Wire.response_to_string r));
    (match stats with
    | Wire.Stats c -> Bench.check (c.Wire.accepted = n) "tcp: accepted %d of %d" c.Wire.accepted n
    | r -> Bench.check false "tcp: Counters answered %s" (Wire.response_to_string r));
    {
      Bench.items = n;
      win = { win with Bench.cpu_s = server_cpu };
      jobs = server_jobs;
      latencies_ms = Array.of_list (List.filter (fun x -> x = x) (Array.to_list latencies));
      extra = [ ("peak_rss_mb", rss) ];
      layer =
        [
          ("tcp.acks_per_read", float_of_int st.frames /. float_of_int (max 1 st.reads));
          ("tcp.busy_share", float_of_int st.busy /. float_of_int st.sends);
        ];
    }
