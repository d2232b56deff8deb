open Ra_core

(* The load generator's per-device retry policy, once for both transports.
   Pure: time arrives as an int tick from the caller, so the simulated
   network replays it bit for bit and the TCP shell only has to read the
   clock and move bytes. *)

type t = {
  tick_ns : int;
  rtt : Rtt.t;
  mutable todo : Loadgen.item list;
  mutable inflight : (int * int * bool) option;  (* seq, sent at, retransmitted *)
  mutable attempts : int;  (* transmissions of the current head item *)
  mutable deadline : int;
  mutable wait_until : int;
  mutable retries : int;
  mutable busy : int;
  mutable acked : int;
}

let per_device ~devices plan =
  let per = Array.make devices [] in
  for k = Array.length plan - 1 downto 0 do
    let i = k mod devices in
    per.(i) <- plan.(k) :: per.(i)
  done;
  per

let create ~tick_ns rtt todo =
  if tick_ns < 1 then invalid_arg "Session.create: tick_ns < 1";
  {
    tick_ns;
    rtt;
    todo;
    inflight = None;
    attempts = 0;
    deadline = 0;
    wait_until = 0;
    retries = 0;
    busy = 0;
    acked = 0;
  }

let rto_ticks t = max 1 (Rtt.rto t.rtt / t.tick_ns)

let next t ~now =
  match (t.inflight, t.todo) with
  | Some _, item :: _ when now >= t.deadline -> Some item
  | None, item :: _ when now >= t.wait_until -> Some item
  | _ -> None

let sent t ~now =
  match t.todo with
  | [] -> ()
  | item :: _ ->
      (* a resend of an in-flight item means its deadline passed *)
      if t.inflight <> None then Rtt.backoff t.rtt;
      (* anything beyond the first transmission of this item is a
         retransmission: Karn's rule bars its Ack from feeding an RTT
         sample, and the campaign counts it *)
      let re = t.attempts > 0 in
      t.attempts <- t.attempts + 1;
      t.inflight <- Some (item.Loadgen.seq, now, re);
      t.deadline <- now + rto_ticks t;
      if re then t.retries <- t.retries + 1

let receive t ~now payload =
  match (Wire.decode_response payload, t.inflight, t.todo) with
  | Ok (Wire.Ack { seq; _ }), Some (fseq, sent, re), item :: rest
    when seq = fseq && seq = item.Loadgen.seq ->
      if not re then Rtt.observe t.rtt ((now - sent) * t.tick_ns);
      Rtt.note_success t.rtt;
      t.todo <- rest;
      t.inflight <- None;
      t.attempts <- 0;
      t.acked <- t.acked + 1;
      t.wait_until <- now
  | Ok (Wire.Busy _), Some _, _ ->
      t.busy <- t.busy + 1;
      Rtt.backoff t.rtt;
      t.inflight <- None;
      t.wait_until <- now + rto_ticks t
  | Ok (Wire.Rejected _), Some _, _ :: rest ->
      t.todo <- rest;
      t.inflight <- None;
      t.attempts <- 0
  | _ -> () (* stale ack for a retired item, unsolicited, or garbage *)

let lost t ~now =
  if t.inflight <> None then begin
    Rtt.backoff t.rtt;
    t.inflight <- None;
    t.wait_until <- now + rto_ticks t
  end

let finished t = t.todo = []
let acked t = t.acked
let retries t = t.retries
let busy t = t.busy
