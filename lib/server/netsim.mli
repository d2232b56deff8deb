(** The simulated network: a full loadgen-vs-server campaign in process.

    Clients drive a {!Core} over virtual byte streams damaged by
    {!Ra_faults.Stream_faults}, in discrete steps — no socket, no clock,
    no thread. The whole campaign (every torn write, stalled link,
    mid-frame reset, shed [Busy], RFC 6298 retry, and optionally a
    mid-campaign kill -9 with journal-backed restart) is a pure function
    of the config. That purity is what server-chaos gates on: counters
    deterministic per seed, invariant across [--jobs], and the
    post-restart fleet root bit-identical to an unkilled run's. Each
    client's retry decisions are a {!Session} ticking once per step; the
    real-TCP load generator ({!Tcp.run_campaign}) drives the same
    {!Session} on the wall clock, so both gates exercise one policy. Only
    this path is a pure function of its config, which is why the
    determinism gates live here. *)

type config = {
  devices : int;
  reports_per_device : int;
  seed : int;
  capacity : int;  (** server's bounded queue depth *)
  drain_every : int;  (** steps between verification drains *)
  faults : Ra_faults.Stream_faults.config;
  crash_at : int option;  (** kill -9 the server at this step *)
  max_steps : int;  (** fail-safe bound; exceeding it is an error *)
}

val default : config
(** 24 devices × 4 reports against a depth-8 queue under
    {!Ra_faults.Stream_faults.default} — busy enough to shed, harsh
    enough to retry. *)

type outcome = {
  counters : Wire.counters;
  root : Bytes.t;  (** fleet Merkle root after the final drain *)
  tampered : int;
  clean : int;
  acked : int;  (** items retired by an Ack; = plan size on success *)
  retries : int;
  busy : int;
  dead_conns : int;
  restarts : int;
  steps : int;
}

val signature : outcome -> string
(** Every counter and the fleet root on one line — the comparison key for
    determinism and [--jobs]-invariance checks. *)

val run : ?jobs:int -> config -> (outcome, string) result
(** Run one campaign to completion (every item acknowledged). [Error]
    when the campaign exceeds [max_steps] or a post-crash restart fails —
    both recovery-invariant violations, surfaced, never masked. *)
