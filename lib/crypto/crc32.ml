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

let update crc payload =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  Bytes.iter
    (fun byte ->
      crc := table.((!crc lxor Char.code byte) land 0xff) lxor (!crc lsr 8))
    payload;
  !crc lxor 0xFFFFFFFF

let digest payload = update 0 payload

let to_bytes crc =
  let b = Bytes.create 4 in
  Bytesutil.store32_be b 0 crc;
  b
