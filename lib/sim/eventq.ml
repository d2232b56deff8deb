(* Structure-of-arrays binary min-heap ordered by (key, seq).

   Pushing allocates no per-entry record and the minimum is read through
   [min_key]/[min_seq]/[min_value] + [drop_min] instead of an
   option-wrapped tuple, so a full push/pop cycle on a warm queue allocates
   nothing. Keys and sequence numbers live in unboxed [int array]s; values
   in a parallel ['a array]. A dropped slot keeps its last value until it is
   overwritten, so values must tolerate being referenced past their pop.

   cross-check: test/test_sim.ml qcheck-compares full push/pop schedules
   against a stable sort of the pushed entries by (key, seq). *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let length q = q.size

let is_empty q = q.size = 0

let grow q value =
  let cap = Array.length q.keys in
  if cap = 0 then begin
    q.keys <- Array.make 8 0;
    q.seqs <- Array.make 8 0;
    q.vals <- Array.make 8 value
  end
  else begin
    let fresh_cap = 2 * cap in
    let keys = Array.make fresh_cap 0 in
    let seqs = Array.make fresh_cap 0 in
    let vals = Array.make fresh_cap value in
    Array.blit q.keys 0 keys 0 q.size;
    Array.blit q.seqs 0 seqs 0 q.size;
    Array.blit q.vals 0 vals 0 q.size;
    q.keys <- keys;
    q.seqs <- seqs;
    q.vals <- vals
  end

(* (key, seq) lexicographic order; seq breaks ties FIFO.

   Both sifts are hole-based: the moving entry is held in registers while
   the hole walks the tree, so each level costs one 3-array store instead
   of a 3-array swap — about half the memory traffic of the classic
   swap-based version, and the engine pop path is exactly this. *)

(* bounds: callers pass heap slots already inside [0, size), and size never
   exceeds the capacity shared by all three parallel arrays. *)
let move q ~from into =
  Array.unsafe_set q.keys into (Array.unsafe_get q.keys from);
  Array.unsafe_set q.seqs into (Array.unsafe_get q.seqs from);
  Array.unsafe_set q.vals into (Array.unsafe_get q.vals from)

(* bounds: [i] is a hole index returned by rise/sink, both of which stay
   within [0, size) <= capacity. *)
let place q ~key ~seq value i =
  Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.vals i value

(* Walk the hole at [i] up while (key, seq) beats the parent.
   bounds: parent = (i-1)/2 < i and the initial hole is < size. *)
let rec rise q ~key ~seq i =
  if i = 0 then i
  else begin
    let parent = (i - 1) / 2 in
    let pk = Array.unsafe_get q.keys parent in
    if key < pk || (key = pk && seq < Array.unsafe_get q.seqs parent) then begin
      move q ~from:parent i;
      rise q ~key ~seq parent
    end
    else i
  end

(* Walk the hole at [i] down while a child beats (key, seq).
   bounds: children are only read after the l >= size / r < size guards. *)
let rec sink q ~key ~seq i =
  let l = (2 * i) + 1 in
  if l >= q.size then i
  else begin
    let r = l + 1 in
    let c =
      if r < q.size then begin
        let lk = Array.unsafe_get q.keys l and rk = Array.unsafe_get q.keys r in
        if
          rk < lk
          || (rk = lk && Array.unsafe_get q.seqs r < Array.unsafe_get q.seqs l)
        then r
        else l
      end
      else l
    in
    let ck = Array.unsafe_get q.keys c in
    if ck < key || (ck = key && Array.unsafe_get q.seqs c < seq) then begin
      move q ~from:c i;
      sink q ~key ~seq c
    end
    else i
  end

let push q ~key ~seq value =
  if q.size >= Array.length q.keys then grow q value;
  let i = q.size in
  q.size <- i + 1;
  place q ~key ~seq value (rise q ~key ~seq i)

(* bounds: the emptiness check guarantees slot 0 is live. *)
let min_key q =
  if q.size = 0 then invalid_arg "Eventq.min_key: empty";
  Array.unsafe_get q.keys 0

(* bounds: the emptiness check guarantees slot 0 is live. *)
let min_seq q =
  if q.size = 0 then invalid_arg "Eventq.min_seq: empty";
  Array.unsafe_get q.seqs 0

(* bounds: the emptiness check guarantees slot 0 is live. *)
let min_value q =
  if q.size = 0 then invalid_arg "Eventq.min_value: empty";
  Array.unsafe_get q.vals 0

(* bounds: the emptiness check guarantees [last] = size - 1 is a live
   slot; the sifted hole stays within the shrunken heap. *)
let drop_min q =
  if q.size = 0 then invalid_arg "Eventq.drop_min: empty";
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    let key = Array.unsafe_get q.keys last in
    let seq = Array.unsafe_get q.seqs last in
    let value = Array.unsafe_get q.vals last in
    place q ~key ~seq value (sink q ~key ~seq 0)
  end

let clear q = q.size <- 0
