(** CRC-32 (ISO-HDLC / IEEE 802.3, the zlib checksum), from scratch.

    This is a {e frame check sequence}, not a cryptographic primitive: it
    detects in-flight corruption (every single-bit flip, every burst up to
    32 bits) so the transport layer can separate "damaged in transit" from
    "MAC mismatch — tampered device". Authenticity still comes from the
    report MAC. *)

val digest : Bytes.t -> int
(** The CRC of a payload, in [\[0, 2^32)]. [digest "123456789"] is
    [0xCBF43926]. *)

val update : int -> Bytes.t -> int
(** Streaming form: [update (update 0 a) b = digest (a ^ b)]. *)

val digest_sub : Bytes.t -> int -> int -> int
(** [digest_sub b off len] is [digest (Bytes.sub b off len)], computed in
    place. Raises [Invalid_argument] on an invalid range. *)
