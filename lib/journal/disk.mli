(** Storage abstraction for the journal, as a record of operations.

    Two backends: {!file} for real directories (used by [ratool]), and
    {!Mem} for tests and benchmarks. The in-memory backend models the
    durability contract of a POSIX file system precisely enough to
    crash-inject it: writes and appends land in a per-file {e unsynced}
    op log, renames are visible immediately but only survive a crash
    after {!type-t.sync_dir}, and {!Mem.crash} resolves the unsynced
    state under a configurable fault mix — short writes, torn appends,
    duplicated tails, undone renames — exactly the damage the WAL scan
    and snapshot fallback must shrug off.

    Cost: each {!Mem} file keeps its durable bytes in one growable buffer
    that [sync] extends in place, so a commit costs its unsynced batch,
    not the whole file so far; listing is O(files). [read] and
    [truncate] still build a full copy. *)

type t = {
  read : string -> Bytes.t option;  (** whole file; [None] if absent *)
  write : string -> Bytes.t -> unit;  (** create or truncate-and-write *)
  append : string -> Bytes.t -> unit;  (** create if absent *)
  truncate : string -> int -> unit;
  sync : string -> unit;
      (** make the file's current contents durable ([fsync]) *)
  rename : string -> string -> unit;  (** atomic replace *)
  remove : string -> unit;
  sync_dir : unit -> unit;
      (** make renames durable (directory [fsync]) *)
  list : unit -> string list;  (** sorted file names *)
}

val file : dir:string -> t
(** Files under [dir] (created if missing). [sync] is a real [fsync];
    [sync_dir] fsyncs the directory where the platform allows it. The
    first [append] to a name opens one [O_APPEND] descriptor that later
    appends and [sync]s of that name reuse; [write], [truncate], [rename]
    and [remove] of the name close it. A [t] holds at most one open
    descriptor per appended file for as long as it is in use. *)

module Mem : sig
  type store

  (** Per-operation fault probabilities applied by {!crash} when
      resolving unsynced state. Synced state is never touched. *)
  type faults = {
    drop_write : float;  (** unsynced op vanishes entirely *)
    tear_write : float;  (** only a prefix of the op's bytes survive *)
    duplicate_tail : float;
        (** a suffix of the file's unsynced appended region is appended
            again — the classic re-ordered/replayed tail *)
    undo_rename : float;  (** a rename not yet covered by [sync_dir] *)
  }

  val no_faults : faults

  val default_faults : faults
  (** A harsh mix used by the qcheck crash properties. *)

  val create : unit -> store
  val disk : store -> t

  val crash : ?faults:faults -> rng:Ra_sim.Prng.t -> store -> unit
  (** Simulate power loss: resolve every file's unsynced ops under
      [faults] (an op after a dropped-or-torn one never lands, matching
      a write queue cut at an arbitrary point), then undo any
      not-yet-durable rename chosen by [undo_rename]. Deterministic for
      a given [rng] state. *)

  val synced_length : store -> string -> int
  (** Length the file would have after a fault-free crash — i.e. the
      acknowledged (synced) byte count. 0 if absent. *)
end
