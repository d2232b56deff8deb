(** End-to-end chaos gate for the attestation control plane.

    Each trial runs a seeded loadgen campaign over the simulated network
    ({!Ra_server.Netsim}) under the harsh {!Ra_faults.Stream_faults.default} mix,
    injects a kill -9 at a seed-derived step, restarts through
    {!Ra_journal.Journal.restart}, and demands convergence to the exact
    state of an unkilled fault-free run of the same campaign:

    - fleet Merkle root bit-identical;
    - accepted count and verdict split identical;
    - every item acknowledged (the retry/backoff loop converges);
    - exactly one restart, recovering a non-empty journal prefix;
    - the faulted run reproduces bit-for-bit when re-run with the same
      seed, and at a different [--jobs] value.

    [ratool server-chaos] and the CI gate drive this module. *)

type trial = {
  seed : int;
  crash_step : int;
  outcome : Ra_server.Netsim.outcome option;
      (** [None] when the faulted campaign failed outright *)
  failures : string list;  (** empty iff every invariant held *)
}

type report = {
  trials : trial list;
  devices : int;
  reports_per_device : int;
  capacity : int;
  other_jobs : int;
      (** the second [--jobs] value every faulted campaign is re-run at;
          never the jobs count the trials themselves ran at *)
  total_shed : int;
  total_retries : int;
  total_busy : int;
  total_dead_conns : int;
}

val run :
  ?jobs:int ->
  ?trials:int ->
  ?devices:int ->
  ?reports_per_device:int ->
  ?capacity:int ->
  ?seed:int ->
  unit ->
  report
(** Defaults: 5 trials, 24 devices × 4 reports, capacity 8, seed 7. *)

val render : report -> string
(** Human-readable trial-by-trial summary. *)
