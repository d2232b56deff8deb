(** The real-socket shell around {!Core} — the only module in the tree
    allowed to touch [Unix] sockets and the wall clock (ralint rule P3
    pins Unix usage here and in the journal's file backend).

    The server is a single-threaded select(2) loop over non-blocking
    connections: reads happen only on readable fds, responses drain
    through per-connection out-buffers, so a client that stalls
    mid-frame or stops reading parks its own state without ever blocking
    another session — the stalled-client property the unit tests pin
    down.

    One select round is one {!Core.handle_round}: every frame read from
    every readable connection in that pass is staged together, the round
    is made durable by one journal commit (one [fsync], however many
    reports it carries), and only then are its Acks built and queued on
    their connections in arrival order. A pass that read no frame makes
    no Core call, so an idle server does no fsync. The out-buffers are
    flushed once per select round, so a pipelining client receives a
    round's Acks in one write rather than one write per report. Every
    decision (shed/accept/dedup/journal/verdict) is {!Core}'s; kill -9
    this process at any instant and a restart recovers through the
    journal, and no Ack was ever sent for a report it cannot recover. *)

val serve :
  ?host:string ->
  ?jobs:int ->
  ?config:Core.config ->
  ?fresh:bool ->
  port:int ->
  dir:string ->
  unit ->
  'a
(** Run the attestation server forever (it never returns; kill the
    process to stop it). If [dir] already holds a journal and [fresh] is
    false, the server restarts through {!Core.recover} — a failed
    recovery is a loud [exit 1], never a silent fresh start. [config]
    only applies to fresh starts; a recovered server re-reads its config
    from the journal header. *)

val request :
  ?host:string -> ?timeout_s:float -> port:int -> Wire.request -> (Wire.response, string) result
(** One request/response exchange on a fresh connection (used by the
    kill-gate script and ad-hoc inspection). *)

type campaign = {
  acked : int;
  retries : int;
  busy : int;  (** [Busy] frames absorbed (server shed under burst) *)
  reconnects : int;  (** connection attempts after a refused/dead socket *)
  stats : Wire.counters;  (** server's view, queried after the campaign *)
  root : Bytes.t;  (** fleet Merkle root, queried after the campaign *)
  tampered : int;
  clean : int;
  wall_s : float;
  reports_per_s : float;  (** acked / wall, through the real fsync path *)
}

val run_campaign :
  ?host:string ->
  ?give_up_after_s:float ->
  port:int ->
  devices:int ->
  seed:int ->
  reports_per_device:int ->
  unit ->
  (campaign, string) result
(** Drive the deterministic {!Loadgen.plan} against a live server: one
    connection per device, each device's retries decided by a {!Session}
    (the policy {!Netsim} runs) on wall-clock nanoseconds. RFC 6298
    retry/backoff covers [Busy], timeouts and dead connections.

    A refused connect, a failed write, a reset, EOF or a corrupt stream
    is a lost connection: with a request in flight the session backs the
    RTO off once and waits one RTO before reconnecting and resending.
    While the server is down, every refused attempt counts in
    [reconnects] and, after an item's first transmission, in [retries];
    the wait doubles each time up to the 3 s ceiling, and the first Ack
    after the restart resets it. So a campaign straddling a kill -9 +
    restart converges instead of failing. [Error] only when the campaign
    does not converge within [give_up_after_s] (default 180) or the final
    root/counters queries fail. *)

val render_campaign : campaign -> string
