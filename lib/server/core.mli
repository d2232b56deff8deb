(** The deterministic core of the attestation server.

    Everything that decides an outcome is here — the bounded ingest
    queue, load shedding, duplicate suppression, journaling, report
    verification, the verdict table — and none of it touches a socket or
    a clock. Transports ({!Netsim} in simulation, {!Tcp} on real sockets)
    only move frames. Consequences:

    - the shed/accepted/deduped counters are a pure function of the
      request sequence, so overload behaviour is replayable per seed;
    - a kill -9 is survivable by construction: every accepted report is
      journaled and committed {e before} its [Ack], and {!recover}
      rebuilds the verdict table by re-verifying the journaled bytes
      through {!Ra_journal.Journal.restart} — verdicts are recomputed,
      never trusted from disk. *)

type config = {
  devices : int;  (** roster size (shared recipe with {!Loadgen}) *)
  seed : int;  (** fleet provisioning seed *)
  capacity : int;  (** bounded queue depth; beyond it, submissions shed *)
}

val default_config : config
(** 32 devices, seed 7, capacity 64. *)

type t

val create : ?config:config -> Ra_journal.Disk.t -> t
(** Fresh server over a fresh journal (any previous journal in [disk] is
    discarded); the header record pins the config so recovery needs no
    side channel. Raises [Invalid_argument] when [capacity < 1]. *)

val recover : Ra_journal.Disk.t -> (t, string) result
(** Restart after a crash: {!Ra_journal.Journal.restart} keeps every
    decodable acknowledged event (tail damage is truncated), the header
    rebuilds the world, and each journaled report is re-verified to
    rebuild verdicts and the dedup set. [counters] restart with
    [accepted = recovered =] the replayed count; [shed]/[deduped]/
    [rejected] are per-incarnation. *)

val handle : ?jobs:int -> t -> Wire.request -> Wire.response
(** Serve one request. [Submit] journals-then-acks, re-acks duplicates,
    or sheds with [Busy] when the queue is full. [Fleet_health] and
    [Fleet_root] drain the queue first, so their answers reflect every
    acknowledged report. *)

val handle_payload : ?jobs:int -> t -> Bytes.t -> Bytes.t
(** The transports' request pump: decode one request payload, {!handle}
    it, and encode the response. An undecodable payload is answered
    [Rejected] without reaching the core (no counter moves); so is a
    response too large for one stream frame ({!Ra_core.Frame.max_payload}),
    e.g. [Fleet_health] over ~29k devices — the request's effects (the
    drain) stand, only the answer is refused. *)

val drain : ?jobs:int -> t -> int
(** Verify everything queued and fold the verdicts into the world;
    returns the number of reports processed. Verification fans out over
    the domain pool grouped by device, and results apply in dequeue
    order — counters and root are bit-identical for any [jobs]. *)

val pending : t -> int
val counters : t -> Wire.counters
val root : t -> Bytes.t
val world : t -> World.t
val config : t -> config
