(** Deterministic pseudo-random number generation for simulations.

    Implements SplitMix64 (for seeding) and xoshiro256** (for the stream),
    both from scratch, so that every simulation in this repository is
    reproducible from a single integer seed and independent of the OCaml
    stdlib [Random] implementation. *)

type t
(** Mutable generator state, held unboxed: {!bits64}, {!int} with a
    power-of-two bound and {!bytes} allocate nothing beyond their result
    (a boxed [int64] for {!bits64} when it is not inlined, the output
    buffer for {!bytes}). Every stream is pinned bit for bit by
    known-answer tests, so no layout change may alter a seeded run. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose whole stream is a pure function
    of [seed]. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val split : t -> t
(** [split g] draws from [g] to seed a fresh, statistically independent
    generator. Useful to give each simulated component its own stream. *)

val bits64 : t -> int64
(** Next 64 raw bits. *)

val int : t -> bound:int -> int
(** [int g ~bound] is uniform in [\[0, bound)]. [bound] must be positive.
    A power-of-two bound masks one draw; any other bound uses rejection
    sampling, so the distribution is exactly uniform either way. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniformly random permutation of [0 .. n-1]. *)

val bytes : t -> int -> Bytes.t
(** [bytes g n] is [n] uniformly random bytes: byte [i] is the low 8 bits
    of the [i]-th draw, the same stream as [n] calls of [int ~bound:256]. *)

val state_bytes : int
(** Size of the serialized state: 32 bytes. *)

val to_bytes : t -> Bytes.t
(** The full generator state as [s0..s3], each big-endian, whatever the
    in-memory layout: Breaker snapshots journal this image. With
    {!set_bytes} this lets a recovered supervisor resume a stream exactly
    where a crashed one left off. *)

val set_bytes : t -> Bytes.t -> unit
(** Overwrite the state in place from a {!to_bytes} image. Raises
    [Invalid_argument] on a wrong-sized buffer. *)
