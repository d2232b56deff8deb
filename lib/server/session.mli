(** One load-generator device's retry policy, shared by both transports.

    A pure state machine over one device's slice of a {!Loadgen.plan}: it
    decides when the head item is due, and what an answer or a lost
    connection does to the RFC 6298 estimator and the todo list. It
    touches no clock, socket or stream — {!Netsim} drives it in virtual
    steps, {!Tcp.run_campaign} in wall-clock nanoseconds — so one policy
    is exercised by the deterministic chaos gate and the real-socket kill
    gate alike.

    Time is an [int] in the caller's tick; [tick_ns] converts it for the
    estimator (RTT samples are [ticks * tick_ns] ns, an RTO is
    [max 1 (rto / tick_ns)] ticks). The protocol, per device:

    - at most one item is in flight; {!next} says when to (re)transmit it;
    - an [Ack] for the in-flight item retires it, and feeds an RTT sample
      only if it answers a first transmission (Karn's rule);
    - [Busy] is counted, backs the RTO off, and waits one RTO;
    - [Rejected] drops the head item (permanent; never sent by a
      well-formed campaign);
    - a lost connection with a request in flight backs off once and waits
      one RTO before retransmitting — the server's dedup absorbs the copy
      if the first one was journaled. *)

type t

val per_device : devices:int -> Loadgen.item array -> Loadgen.item list array
(** Split a plan by position: item [k] belongs to device [k mod devices],
    the round-major order {!Loadgen.plan} builds. Each list keeps plan
    order. *)

val create : tick_ns:int -> Ra_core.Rtt.t -> Loadgen.item list -> t
(** A session that will deliver [todo] in order, timing retransmissions
    with [rtt]. Raises [Invalid_argument] when [tick_ns < 1]. *)

val next : t -> now:int -> Loadgen.item option
(** The item to transmit at [now], if any: the in-flight item once its
    deadline has passed, or — nothing in flight — the head item once the
    post-answer wait is over. Pure; follow a [Some] with {!sent}. *)

val sent : t -> now:int -> unit
(** The item {!next} returned was handed to the transport at [now]. A
    resend of an in-flight item (its deadline passed) backs the RTO off
    first; any transmission after the item's first is counted as a
    retry. *)

val receive : t -> now:int -> Bytes.t -> unit
(** Absorb one response payload. A stale or unsolicited [Ack], an answer
    with nothing in flight, and an undecodable payload change nothing. *)

val lost : t -> now:int -> unit
(** The connection died (reset, corrupt stream, refused connect, failed
    write). With a request in flight: back off, drop the in-flight mark,
    and wait one RTO. Otherwise a no-op, so a caller may report the same
    dead connection every tick. *)

val finished : t -> bool
(** Every item was retired (acknowledged or rejected). *)

val acked : t -> int
val retries : t -> int
val busy : t -> int
