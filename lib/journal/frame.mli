(** CRC-32 framing, the one way this repo frames bytes: datagrams,
    journal snapshots, TCP stream frames and WAL records are all
    [body || crc32(body)] (big-endian, 4 bytes). Re-exported as
    [Ra_core.Frame].

    Why it exists: a report whose bits flipped in transit fails MAC
    verification exactly like a report from a tampered device. The frame
    check lets a receiver tell the two apart — a damaged frame is dropped
    (and retransmission recovers it), while a frame that arrives intact but
    fails the attestation MAC is evidence about the {e device}. The chaos
    harness's "corruption is never silently accepted, and never becomes a
    false Tampered verdict" invariant rests on this separation. *)

val seal : Bytes.t -> Bytes.t
(** [payload || crc32(payload)]: the datagram (and snapshot) encoding,
    whose payload length is implicit in the buffer. *)

val open_ : Bytes.t -> (Bytes.t, string) result
(** Strip and check the frame check sequence. [Error] means the frame was
    damaged in transit (or truncated below 4 bytes) and must be treated as
    lost, never parsed. *)

(** {2 Length-prefixed records}

    Where the length is not implicit, the body is
    [magic (2 B) | k u32 fields | u32 length | payload], so the CRC covers
    the header too. Each use fixes its {!layout}: the stream frame is
    ["RF"] with no fields, the WAL record ({!Wal}) ["RJ"] with one. *)

type layout = {
  magic : string;  (** 2 bytes: a desynchronisation tripwire *)
  fields : int;  (** [k], the u32 header fields before the length *)
  cap : int;  (** largest payload a length field may claim *)
}

val overhead : layout -> int
(** Framing bytes around one payload: [2 + 4k + 4 + 4]. *)

val encode : layout -> int array -> Bytes.t -> Bytes.t
(** [encode l fields payload]. Raises [Invalid_argument] when the payload
    exceeds [l.cap] or [fields] does not hold [l.fields] values. *)

type error = Bad_magic | Oversized of int | Bad_check

type parsed =
  | Record of { fields : int array; payload : Bytes.t; size : int }
      (** a CRC-checked record, [size] bytes long *)
  | Short  (** the available bytes end mid-record *)
  | Damaged of error

val parse : layout -> Bytes.t -> int -> int -> parsed
(** [parse l buf at avail]: the record at [buf.[at]], [avail] bytes
    buffered from there. Checks, in order: header present, magic,
    length within the cap (so a corrupted length is never waited for or
    allocated), whole record present, CRC. Pure — the stream {!Reader}
    and the WAL scan are loops over it. *)

(** {2 Stream framing}

    A TCP connection delivers a byte stream, not datagrams: one [write]
    can arrive as several reads, several writes as one read, and a torn
    write leaves the receiver holding half a frame. A stream frame is
    [['R' 'F' | u32 length | payload | u32 crc32(magic .. payload)]], and
    {!Reader} reassembles frames from reads cut at {e any} byte boundary. *)

val seal_stream : Bytes.t -> Bytes.t
(** One stream frame ({!stream_overhead} bytes of framing). Raises
    [Invalid_argument] beyond {!max_payload}. *)

val max_payload : int
(** Upper bound on a stream frame's payload (1 MiB). *)

val stream_overhead : int
(** Bytes of framing around a stream payload (magic + length + CRC = 10). *)

(** Incremental reassembly of stream frames from arbitrary read chunks. *)
module Reader : sig
  type t

  type result =
    | Frame of Bytes.t  (** one complete, CRC-checked payload *)
    | Await  (** the buffered bytes end mid-frame; feed more *)
    | Corrupt of string
        (** framing is broken (bad magic, oversized length, CRC failure):
            the stream has no trustworthy resynchronisation point, so the
            reader latches the error — drop the connection *)

  val create : unit -> t

  val feed : t -> ?off:int -> ?len:int -> Bytes.t -> unit
  (** Append a read chunk (or a slice of one). Chunks may split frames at
      any byte boundary, including inside the magic, the length field or
      the CRC. Raises [Invalid_argument] on an invalid slice. Bytes fed
      after the reader latched {!Corrupt} are discarded. *)

  val next : t -> result
  (** Consume and return the next complete frame, if the buffer holds
      one. Call repeatedly until {!Await} — one feed can complete several
      frames. After {!Corrupt}, every subsequent call returns the same
      error. *)

  val drain : t -> (Bytes.t -> bool) -> (unit, string) Stdlib.result
  (** Hand each complete buffered frame to [f] while [f] returns [true]
      (e.g. while the connection is still alive). [Error] when the
      stream is {!Corrupt}: drop the connection. *)

  val buffered : t -> int
  (** Bytes held but not yet consumed as frames (0 after a clean drain). *)

  val frames : t -> int
  (** Complete frames delivered so far. *)

  val bytes_fed : t -> int
  (** Total bytes accepted by {!feed}. *)
end
