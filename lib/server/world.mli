(** The server's fleet world: roster, per-device verifier views, verdict
    table.

    Built as a pure function of [(devices, seed)] — the same recipe
    {!Loadgen} uses for its prover fleet — so server and load generator
    share keys the way a manufacturer-enrolled fleet would, with no
    key exchange on the wire. The verdict table (highest-sequence verdict
    per device, plus operator quarantine flags) is what the routed
    endpoints serve, and {!root} reduces it to one Merkle root whose
    bit-identity across a crash/restart is the recovery gate. *)

open Ra_core

type t

val device_id : int -> string
(** Roster naming scheme ([node-%05d]), shared with the load generator. *)

val master_secret : seed:int -> Bytes.t

val device_config : Ra_device.Device.config
(** The provisioning config every fleet member runs (16 × 256-byte
    blocks, 1 MiB modeled). *)

val build : devices:int -> seed:int -> t
(** Enrol the roster and build one verifier view per device over the
    fleet's one release image. Members are enrolled virtually: the server
    runs no provers, so no device simulator is built. Raises
    [Invalid_argument] when [devices < 1]. *)

val fleet : t -> Fleet.t
val devices : t -> int
val known : t -> string -> bool

val verify : t -> device:string -> Bytes.t -> (Verifier.verdict * Bytes.t, string) result
(** Decode and verify one submitted report against [device]'s expected
    image; returns the verdict and the report MAC (the Merkle leaf
    material). [Error] for unknown devices and undecodable reports.

    Each device has one verifier view, built by {!build} and kept for the
    life of the world; its memo of expected code-block digests persists
    across calls, so a warm verify is one HMAC. The verdict equals
    [Verifier.verify (Fleet.verifier_for (fleet t) device)] on the decoded
    report. Concurrency contract: calls for {e different} devices may run
    on different domains at once; calls for the {e same} device must not
    overlap. {!Core.drain} keeps this by grouping a batch by device (one
    domain per group, with the pool barrier between drains) and
    {!Core.recover} replays sequentially. *)

val record : t -> device:string -> seq:int -> Verifier.verdict -> Bytes.t -> unit
(** Fold one verified submission into the verdict table. Submissions
    apply in sequence order: a stale [seq] (below the device's highest)
    is a no-op, so the table is independent of arrival order. *)

val quarantine : t -> string -> bool
(** Operator quarantine order; [false] for unknown devices. *)

val health : t -> (string * string) list
(** [(device, state)] in roster order; states are [quarantined], [clean],
    [tampered], [unreported]. *)

val verdict_counts : t -> int * int * int
(** (clean, tampered, unreported). *)

val root : t -> Bytes.t
(** Merkle root over per-device leaves [id || status || mac]. Quarantine
    overrides the verdict byte — operator orders are fleet state and must
    survive restart visibly. *)
