(** The chaos-harness skeleton: the parts of an invariant-checking
    campaign that do not depend on what the campaign runs — collecting
    violations, comparing re-runs against a reference run, and framing a
    journaled campaign between a ["campaign"] header and a
    ["campaign-end"] record. {!Chaos}, {!Fleet_chaos}, {!Server_chaos},
    {!Fleet_roll} and [ratool] pass their own invariants, fault plans and
    world building in as values and functions; nothing here knows which
    harness is calling. *)

(** {1 Violations} *)

type violations
(** An in-order collector of invariant violations. *)

val violations : unit -> violations

val fail : violations -> ('a, unit, string, unit) format4 -> 'a
(** [fail v fmt args] records one printf-formatted violation. *)

val to_list : violations -> string list
(** Every violation recorded so far, oldest first. *)

(** {1 Re-runs} *)

type rerun = Jobs of int | Shards of int | Same_seed
(** Labelled ["jobs=J"], ["shards=S"] and ["same seed"]. *)

val compare_reruns :
  signature:('r -> string) ->
  'r ->
  (rerun * (unit -> ('r, string) result)) list ->
  (string, string) result list
(** [compare_reruns ~signature reference reruns] executes each re-run in
    order and compares its signature with the reference's. One entry per
    re-run: [Ok "<label>: bit-identical to the reference run"], or an
    [Error] violation — ["<label>: <error>"] when the re-run failed,
    ["<label> diverged from the reference run:\n  <reference>\n
    <re-run>"] when the signatures differ. *)

(** {1 Campaign journals} *)

type 'p campaign = {
  experiment : string;  (** the header's ["experiment"] field *)
  params : 'p -> (string * int) list;
      (** the header's integer fields, which rebuild the world *)
  of_params : (string -> int option) -> 'p option;
      (** read them back; [None] rejects the header as malformed *)
}

val begin_campaign : 'p campaign -> Ra_journal.Journal.t -> 'p -> unit
(** Append and commit the ["campaign"] header. *)

val end_campaign :
  Ra_journal.Journal.t -> (string * Ra_journal.Event.value) list -> unit
(** Append and commit the ["campaign-end"] record with these fields. *)

val read_campaign : 'p campaign -> Ra_journal.Event.t array -> ('p, string) result
(** The parameters of a recorded header; [Error] if the journal is empty,
    does not open with a header, records another experiment, or the
    header is malformed. *)

val experiment : Ra_journal.Disk.t -> string option
(** The experiment named by the header of the journal on a disk. *)

val verifier :
  'p campaign -> Ra_journal.Event.t array -> 'p -> Ra_journal.Journal.t
(** A verify-mode journal over recorded events, header already re-emitted. *)

val replay :
  'p campaign ->
  Ra_journal.Disk.t ->
  (Ra_journal.Journal.recovery ->
  'p ->
  Ra_journal.Journal.t ->
  ('r * (string * Ra_journal.Event.value) list, string) result) ->
  ('r, string) result
(** Verify-mode replay of a complete campaign: recover, read the header,
    require a closing ["campaign-end"], build a {!verifier}, let the
    caller re-run the campaign against it (returning its result and the
    end record's fields), re-emit the end record, and require
    {!Ra_journal.Journal.verified}. [Ok] proves every recorded byte
    reproduced. *)
