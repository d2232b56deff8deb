(** {!Ra_journal.Frame}, re-exported: the CRC-32 framing of datagrams,
    stream frames, WAL records and snapshots lives next to the journal
    that also uses it. *)

include module type of struct include Ra_journal.Frame end
