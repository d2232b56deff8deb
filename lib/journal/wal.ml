let layout = { Frame.magic = "RJ"; fields = 1; cap = 1 lsl 30 }

let encode ~seq payload = Frame.encode layout [| seq |] payload

type scan = {
  records : Bytes.t list;
  offsets : int array;
  good_bytes : int;
  damage : string option;
}

let scan ?(first_seq = 1) buf =
  let len = Bytes.length buf in
  let rec go p seq records offsets =
    let stop damage =
      {
        records = List.rev records;
        offsets = Array.of_list (List.rev offsets);
        good_bytes = p;
        damage;
      }
    in
    let damaged fmt = Printf.ksprintf (fun msg -> stop (Some msg)) fmt in
    if p = len then stop None
    else if len - p < Frame.overhead layout then
      damaged "torn record header at offset %d" p
    else
      match Frame.parse layout buf p (len - p) with
      | Frame.Short -> damaged "torn record body at offset %d" p
      | Frame.Damaged Frame.Bad_magic -> damaged "bad magic at offset %d" p
      | Frame.Damaged (Frame.Oversized n) ->
        damaged "implausible record length %d at offset %d" n p
      | Frame.Damaged Frame.Bad_check -> damaged "CRC mismatch at offset %d" p
      | Frame.Record { fields; _ } when fields.(0) <> seq land 0xffffffff ->
        damaged
          "sequence break at offset %d: expected %d, found %d (duplicated or \
           reordered tail)"
          p seq fields.(0)
      | Frame.Record { payload; size; _ } ->
        go (p + size) (seq + 1) (payload :: records) ((p + size) :: offsets)
  in
  go 0 first_seq [] []
