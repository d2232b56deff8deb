(** Allocation-free binary min-heap ordered by [(key, seq)].

    Ties on [key] pop in FIFO [seq] order. With a structure-of-arrays
    layout, [push] on a warm queue and the [min_key]/[min_seq]/[min_value]
    + [drop_min] pop protocol allocate nothing, which is what the
    simulator hot loop wants.

    The min-accessors raise [Invalid_argument] on an empty queue — guard
    with {!is_empty}. Popped value slots are only cleared when overwritten
    by a later push, so values may be retained by the queue slightly past
    their pop; that is fine for heap-allocated callbacks/cells and for any
    value without a disposal obligation. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit

val min_key : 'a t -> int
(** Key of the minimum entry. Raises on empty. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum entry. Raises on empty. *)

val min_value : 'a t -> 'a
(** Value of the minimum entry, without removing it. Raises on empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry. Raises on empty. *)

val clear : 'a t -> unit
