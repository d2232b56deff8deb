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
      never trusted from disk.

    {b Rounds and group commit.} The transports hand the core a {e round}
    of requests: every frame a select(2) pass read ({!Tcp}), or every
    frame delivered in one simulation step ({!Netsim}). The round is
    staged request by request, in order — validate, dedup, journal
    append, queue — then made durable by {e one} journal commit (one
    [fsync]; none when the round appended nothing), and only after that
    commit are the round's Acks built and its responses released. No
    response of a round exists before the round's commit: a dedup Ack
    for a report staged earlier in the same round waits for it too, and
    a power cut at the commit releases nothing. *)

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
    [rejected]/[commits] are per-incarnation. *)

val handle_round : ?jobs:int -> t -> Bytes.t array -> Bytes.t array
(** Serve one round: decode every request payload, stage them in order,
    commit once, then encode one response per payload, in the same
    order. Each request sees the effects of those before it, exactly as
    if they were served one at a time. An undecodable payload is answered
    [Rejected] without reaching the core (no counter moves); so is a
    response too large for one stream frame ({!Ra_core.Frame.max_payload}),
    e.g. [Fleet_health] over ~29k devices — the request's effects (the
    drain) stand, only the answer is refused. *)

val handle : ?jobs:int -> t -> Wire.request -> Wire.response
(** A round of one request, through the same staging and commit.
    [Submit] journals-then-acks, re-acks duplicates, or sheds with [Busy]
    when the queue is full. [Fleet_health] and [Fleet_root] drain the
    queue first, so their answers reflect every report accepted before
    them. *)

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
