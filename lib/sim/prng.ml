(* SplitMix64: used only to expand a seed into the xoshiro state, as
   recommended by the xoshiro authors. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The xoshiro256** state s0..s3 lives unboxed in one 32-byte buffer, word
   i at byte offset 8i in native byte order. Mutable int64 record fields
   would box every store, so every draw would allocate; test/test_sim.ml
   holds the draw paths to an allocation budget. *)
type t = Bytes.t

let state_bytes = 32

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let g = Bytes.create state_bytes in
  for i = 0 to 3 do
    Bytes.set_int64_ne g (8 * i) (splitmix64_next state)
  done;
  g

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 g =
  let open Int64 in
  let s0 = Bytes.get_int64_ne g 0 and s1 = Bytes.get_int64_ne g 8 in
  let s2 = Bytes.get_int64_ne g 16 and s3 = Bytes.get_int64_ne g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_ne g 8 (logxor s1 s2);
  Bytes.set_int64_ne g 0 (logxor s0 s3);
  Bytes.set_int64_ne g 16 (logxor s2 t);
  Bytes.set_int64_ne g 24 (rotl s3 45);
  result

let split g =
  let seed = Int64.to_int (bits64 g) in
  create ~seed

(* Rejection sampling over the top bits keeps the distribution exactly
   uniform for any bound, not just powers of two. The loop is a top-level
   function so the common power-of-two path allocates nothing. *)
let rec reject g bound =
  let r = Int64.to_int (Int64.logand (bits64 g) (Int64.of_int max_int)) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then reject g bound else v

let int g ~bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 g) (Int64.of_int (bound - 1)))
  else reject g bound

let float g =
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. 0x1.0p-53

let bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g ~p =
  assert (p >= 0. && p <= 1.);
  float g < p

let exponential g ~mean =
  let u = 1.0 -. float g in
  -.mean *. log u

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place g a;
  a

(* Each byte is the low 8 bits of one draw, i.e. [int g ~bound:256].
   bounds: b has exactly n bytes and i < n; the masked value is in
   [0, 256) so unsafe_chr is total.
   cross-check: the stream is pinned by the known-answer tests in
   test/test_sim.ml. *)
let bytes g n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Int64.to_int (bits64 g) land 0xff))
  done;
  b

(* The serialized image stays big-endian s0..s3, whatever the host's byte
   order: Breaker snapshots journal it. *)
let to_bytes g =
  let b = Bytes.create state_bytes in
  for i = 0 to 3 do
    Bytes.set_int64_be b (8 * i) (Bytes.get_int64_ne g (8 * i))
  done;
  b

let set_bytes g b =
  if Bytes.length b <> state_bytes then invalid_arg "Prng.set_bytes: need 32 bytes";
  for i = 0 to 3 do
    Bytes.set_int64_ne g (8 * i) (Bytes.get_int64_be b (8 * i))
  done
