open Ra_crypto

(* Every framing here is [body || crc32(body)]: [seal_at] writes the
   trailer, [intact] checks it, both over the buffer in place. *)
let seal_at b n = Bytesutil.store32_be b n (Crc32.digest_sub b 0 n)

let intact b off n = Bytesutil.load32_be b (off + n) = Crc32.digest_sub b off n

let seal payload =
  let frame = Bytes.extend payload 0 4 in
  seal_at frame (Bytes.length payload);
  frame

let open_ frame =
  let n = Bytes.length frame - 4 in
  if n < 0 then Error "frame too short"
  else if intact frame 0 n then Ok (Bytes.sub frame 0 n)
  else Error "frame check failed"

(* --- length-prefixed records --------------------------------------------- *)

type layout = { magic : string; fields : int; cap : int }

let overhead l = 2 + (4 * l.fields) + 4 + 4

let encode l fields payload =
  let n = Bytes.length payload and h = overhead l - 4 in
  if n > l.cap then invalid_arg "Frame.encode: payload too large";
  if Array.length fields <> l.fields then invalid_arg "Frame.encode: field count";
  let b = Bytes.create (h + n + 4) in
  Bytes.blit_string l.magic 0 b 0 2;
  Array.iteri (fun i v -> Bytesutil.store32_be b (2 + (4 * i)) v) fields;
  Bytesutil.store32_be b (h - 4) n;
  Bytes.blit payload 0 b h n;
  seal_at b (h + n);
  b

type error = Bad_magic | Oversized of int | Bad_check

type parsed =
  | Record of { fields : int array; payload : Bytes.t; size : int }
  | Short
  | Damaged of error

let parse l buf at avail =
  let h = overhead l - 4 in
  if avail < h then Short
  else if Bytes.get buf at <> l.magic.[0] || Bytes.get buf (at + 1) <> l.magic.[1] then
    Damaged Bad_magic
  else
    let n = Bytesutil.load32_be buf (at + h - 4) in
    if n > l.cap then Damaged (Oversized n)
    else if avail < h + n + 4 then Short
    else if not (intact buf at (h + n)) then Damaged Bad_check
    else
      let field i = Bytesutil.load32_be buf (at + 2 + (4 * i)) in
      let payload = Bytes.sub buf (at + h) n in
      Record { fields = Array.init l.fields field; payload; size = h + n + 4 }

(* --- stream framing ------------------------------------------------------ *)

(* The magic is a cheap desynchronisation tripwire: a reader that lands
   mid-frame (torn write, resumed half-read) fails on the magic or the
   CRC, never by parsing payload bytes as a header. The cap is large
   enough for any report burst a device legitimately sends, small enough
   that a hostile length field cannot make the reader allocate gigabytes
   before the CRC check. *)
let stream = { magic = "RF"; fields = 0; cap = 1 lsl 20 }

let max_payload = stream.cap

let stream_overhead = overhead stream

let seal_stream payload = encode stream [||] payload

module Reader = struct
  (* Accumulating reassembly buffer: [buf.[start .. start+len)] holds the
     bytes not yet consumed. Feeding appends; parsing consumes whole
     frames from the front. The buffer is compacted before it grows, so a
     long-lived connection does not leak its own history. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable len : int;
    mutable dead : string option;  (* first framing error, sticky *)
    mutable frames : int;
    mutable bytes_fed : int;
  }

  type result = Frame of Bytes.t | Await | Corrupt of string

  let create () =
    { buf = Bytes.create 4096; start = 0; len = 0; dead = None; frames = 0; bytes_fed = 0 }

  let buffered t = t.len
  let frames t = t.frames
  let bytes_fed t = t.bytes_fed

  let feed t ?(off = 0) ?len chunk =
    let len = match len with Some l -> l | None -> Bytes.length chunk - off in
    if off < 0 || len < 0 || off + len > Bytes.length chunk then
      invalid_arg "Frame.Reader.feed";
    if t.dead = None && len > 0 then begin
      let cap = Bytes.length t.buf in
      if t.start + t.len + len > cap then begin
        (* compact first; grow only if the frame really needs it *)
        let grow = t.len + len > cap in
        let buf = if grow then Bytes.create (max (t.len + len) (2 * cap)) else t.buf in
        Bytes.blit t.buf t.start buf 0 t.len;
        t.buf <- buf;
        t.start <- 0
      end;
      Bytes.blit chunk off t.buf (t.start + t.len) len;
      t.len <- t.len + len;
      t.bytes_fed <- t.bytes_fed + len
    end

  let die t msg =
    t.dead <- Some msg;
    t.len <- 0;
    Corrupt msg

  let next t =
    match t.dead with
    | Some msg -> Corrupt msg
    | None -> (
      match parse stream t.buf t.start t.len with
      | Short -> Await
      | Damaged Bad_magic -> die t "bad stream magic"
      | Damaged (Oversized n) ->
        die t (Printf.sprintf "frame length %d exceeds limit" n)
      | Damaged Bad_check -> die t "stream frame check failed"
      | Record { payload; size; _ } ->
        t.start <- t.start + size;
        t.len <- t.len - size;
        if t.len = 0 then t.start <- 0;
        t.frames <- t.frames + 1;
        Frame payload)

  let rec drain t f =
    match next t with
    | Await -> Ok ()
    | Corrupt msg -> Error msg
    | Frame payload -> if f payload then drain t f else Ok ()
end
