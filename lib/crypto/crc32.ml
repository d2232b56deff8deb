(* CRC-32/ISO-HDLC (the IEEE 802.3 / zlib polynomial), reflected form:
   polynomial 0xEDB88320, init 0xFFFFFFFF, final xor 0xFFFFFFFF. *)

(* Eager, not [lazy]: forcing a lazy from two domains at once raises
   [CamlinternalLazy.Undefined], and CRCs run on the domain pool. *)
(* ralint: allow P2 -- read-only lookup table, never written. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let update_sub crc b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest_sub";
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.get b i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let update crc payload = update_sub crc payload 0 (Bytes.length payload)

let digest payload = update 0 payload

let digest_sub b off len = update_sub 0 b off len
