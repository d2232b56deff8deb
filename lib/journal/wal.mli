(** Record framing for the write-ahead log.

    Each record is the {!Frame} record with magic ["RJ"] and one header
    field, the sequence number:
    ["RJ" | seq (u32) | len (u32) | payload | crc32 (u32)], payloads
    capped at 1 GiB. The scan accepts the longest prefix of records
    whose CRCs check out {e and} whose sequence numbers are contiguous:
    a torn tail fails the CRC, a duplicated tail (re-appended bytes after
    a crash) repeats a sequence number. Everything after the first damage
    is discarded — by the WAL rule, nothing after an unsynced record was
    ever acknowledged. *)

val encode : seq:int -> Bytes.t -> Bytes.t

type scan = {
  records : Bytes.t list;  (** accepted payloads, in order *)
  offsets : int array;
      (** [offsets.(i)] is the byte offset just after record [i] — the
          truncation point that keeps records [0..i] *)
  good_bytes : int;  (** offset after the last accepted record *)
  damage : string option;
      (** why the scan stopped early, [None] for a clean log *)
}

val scan : ?first_seq:int -> Bytes.t -> scan
