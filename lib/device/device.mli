(** A complete simulated prover: engine, CPU, lockable memory, cost model,
    attestation key, and the split between code and data regions. *)

open Ra_sim

type config = {
  seed : int;
  blocks : int;
  block_size : int;  (** real bytes per block, hashed by the actual MP *)
  modeled_block_bytes : int;
      (** bytes per block charged to the cost model — lets a 256 KiB real
          image stand in for the paper's gigabyte-scale attested memory *)
  data_blocks : int list;  (** indices treated as volatile data (Section 2.3) *)
  cost : Cost_model.t;
  key : Bytes.t;  (** attestation key shared with the verifier *)
  digest_cache : bool;
      (** memoise per-block digests keyed on {!Memory.version} (default
          true); host-time optimisation only — modeled cost is unchanged *)
  store : Ra_cache.Store.t option;
      (** optional fleet-wide content-addressed store shared between
          devices (and their verifiers) so identical blocks hash once *)
}

val default_config : config
(** 64 blocks of 1 KiB real bytes, each modeling 16 MiB (1 GiB total,
    the Section 2.5 scenario), ODROID-XU4 costs, no data blocks. *)

type t = private {
  engine : Engine.t;
  cpu : Cpu.t;
  memory : Memory.t;
  config : config;
  cache : Ra_cache.t option;  (** present iff [config.digest_cache] *)
  mutable epoch : int;  (** boot generation; bumped by every {!crash} *)
  mutable up : bool;
  mutable crash_count : int;
  mutable last_boot_at : Timebase.t;
  mutable crash_hooks : (unit -> unit) list;
  mutable reboot_hooks : (unit -> unit) list;
}

val create : ?image:Bytes.t -> config -> t
(** The firmware image is generated deterministically from [seed]; the
    verifier reconstructs the same image from the same seed.

    [image] supplies that image ready-made, so a fleet running one release
    generates it once instead of once per device. It must equal
    [firmware_image ~seed:config.seed ~size:(config.blocks *
    config.block_size)]; only its length is checked ([Invalid_argument]
    otherwise). It is copied into {!Memory} and never mutated, so one
    buffer can back any number of devices and verifier views. *)

val firmware_image : seed:int -> size:int -> Bytes.t
(** The deterministic benign image generator shared with the verifier. *)

val attested_bytes : t -> int
(** Total modeled size: [blocks * modeled_block_bytes]. *)

val is_data_block : t -> int -> bool

val run : ?until:Timebase.t -> t -> unit
(** Convenience passthrough to {!Ra_sim.Engine.run}. *)

(** {2 Crash / reboot model}

    A crash is a power-loss event: every CPU job dies without completing
    (in-flight measurements included), MPU locks open, and registered crash
    hooks run so components can drop whatever volatile state they model
    (cached reports, session tables, self-measurement logs). The firmware
    image itself is flash-backed and survives. After [reboot_delay] the
    device is up again and reboot hooks run.

    Engine events scheduled before the crash still fire — they model
    hardware timers and the outside world. Components that must not act
    across a reboot guard their callbacks with {!epoch}. *)

val crash : ?reboot_delay:Timebase.t -> t -> unit
(** Crash now (no-op if already down). Default reboot delay: 250 ms. *)

val is_up : t -> bool
(** False between a crash and the corresponding boot completion. *)

val epoch : t -> int
(** Boot generation, starting at 0; incremented at each crash. Capture it
    when scheduling and compare on fire to detect an intervening reboot. *)

val crash_count : t -> int

val last_boot_at : t -> Timebase.t
(** Completion time of the most recent reboot (0 if never crashed). *)

val on_crash : t -> (unit -> unit) -> unit
(** Register a volatile-state-loss hook; hooks run synchronously inside
    {!crash}, in registration order, after the CPU flush. *)

val on_reboot : t -> (unit -> unit) -> unit
(** Register a boot-completion hook (e.g. resume a measurement schedule). *)
