#!/usr/bin/env python3
"""Emit lib/crypto/sha256_multi.ml: interleaved 2-way SHA-256.

The compress kernel is straight-line generated code because the whole
point is instruction-level parallelism: independent dependency chains from
2 blocks woven into one instruction stream, no closures or per-round
control flow for the compiler to spill around.  The winning formulation
(picked empirically against ~20 variants, see DESIGN.md) is:

  - rounds grouped 8 at a time inside a tail-recursive loop carrying the
    8*N state words as arguments, so state lives in registers and the
    a..h rotation is argument renaming, while code size stays well inside
    the L1 I-cache (a fully unrolled 2-lane kernel is ~55 KB and loses);
  - the 32-bit mask threaded through as an argument so it sits in a
    register instead of being rematerialised as a 10-byte movabsq;
  - message schedule fully unrolled per lane over a 16-name rolling
    window (pure schedule words stay in registers) storing w[i]+K[i], so
    each round does a single array load and no constant load;
  - 3-op ch (g ^ (e & (f ^ g))) and 4-op maj (((a^b)&c)^(a&b));
  - deferred masking: state words are only masked inside the rotation
    dup and at the final store -- low 32 bits are correct throughout
    because +, lxor, land, lor never propagate high bits downward.

gen_compress takes the lane count, but only 2 is emitted: a 4-lane
kernel measured slower than 2 (its 32 state words spill; DESIGN.md).

Run from the repo root:  python3 tools/gen_sha256_multi.py
"""

import os

K = [
0x428a2f98,0x71374491,0xb5c0fbcf,0xe9b5dba5,0x3956c25b,0x59f111f1,
0x923f82a4,0xab1c5ed5,0xd807aa98,0x12835b01,0x243185be,0x550c7dc3,
0x72be5d74,0x80deb1fe,0x9bdc06a7,0xc19bf174,0xe49b69c1,0xefbe4786,
0x0fc19dc6,0x240ca1cc,0x2de92c6f,0x4a7484aa,0x5cb0a9dc,0x76f988da,
0x983e5152,0xa831c66d,0xb00327c8,0xbf597fc7,0xc6e00bf3,0xd5a79147,
0x06ca6351,0x14292967,0x27b70a85,0x2e1b2138,0x4d2c6dfc,0x53380d13,
0x650a7354,0x766a0abb,0x81c2c92e,0x92722c85,0xa2bfe8a1,0xa81a664b,
0xc24b8b70,0xc76c51a3,0xd192e819,0xd6990624,0xf40e3585,0x106aa070,
0x19a4c116,0x1e376c08,0x2748774c,0x34b0bcb5,0x391c0cb3,0x4ed8aa4a,
0x5b9cca4f,0x682e6ff3,0x748f82ee,0x78a5636f,0x84c87814,0x8cc70208,
0x90befffa,0xa4506ceb,0xbef9a3f7,0xc67178f2]

GROUP = 8  # rounds per recursion step: best code-size / call-overhead point


def gen_compress(lanes):
    out = []
    w = out.append
    name = f"compress{lanes}"
    sts = " ".join(f"st{l}" for l in range(lanes))
    ws = " ".join(f"w{l}" for l in range(lanes))
    bs = " ".join(f"b{l} p{l}" for l in range(lanes))
    w(f"(* bounds: every unsafe access on a w<l> scratch uses a literal index in")
    w(f"   0..63 against the 64-word arrays digest_many allocates; every unsafe")
    w(f"   access on an st<l> state a literal index in 0..7 against 8-word")
    w(f"   arrays; and every unsafe_load32_be reads at p<l> + 4*i with i <= 15,")
    w(f"   inside the 64-byte block that digest_many's whole-block loop bound")
    w(f"   (p<l> + 64 <= length b<l>) guarantees. *)")
    w(f"let {name} {sts} {ws} {bs} =")
    w("  let msk = mask in")
    # Unrolled kw-preadded schedule per lane: pure window values in locals,
    # w[i] + K[i] stored so the rounds do one load and no constant.
    for l in range(lanes):
        for i in range(16):
            w(f"  let m{l}_{i} = Bytesutil.unsafe_load32_be b{l} (p{l} + {4*i}) in")
            w(f"  Array.unsafe_set w{l} {i} (m{l}_{i} + 0x{K[i]:08x});")
        names = [f"m{l}_{i}" for i in range(16)]
        for i in range(16, 64):
            v15 = names[(i - 15) % 16]
            v2 = names[(i - 2) % 16]
            v7 = names[(i - 7) % 16]
            v16 = names[(i - 16) % 16]
            w(f"  let x15 = dup {v15} and x2 = dup {v2} in")
            w(f"  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor ({v15} lsr 3)) land msk in")
            w(f"  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor ({v2} lsr 10)) land msk in")
            w(f"  let {v16} = ({v16} + s0 + {v7} + s1) land msk in")
            w(f"  Array.unsafe_set w{l} {i} ({v16} + 0x{K[i]:08x});")
    allv = " ".join(f"{v}{l}" for l in range(lanes) for v in "abcdefgh")
    w(f"  let rec go r msk {allv} =")
    w("    if r = 64 then begin")
    for l in range(lanes):
        for j, v in enumerate("abcdefgh"):
            w(f"      Array.unsafe_set st{l} {j} ((Array.unsafe_get st{l} {j} + {v}{l}) land msk);")
    w("    end")
    w("    else begin")
    vars_ = {l: [f"{v}{l}" for v in "abcdefgh"] for l in range(lanes)}
    for rr in range(GROUP):
        for l in range(lanes):
            a, b, c, d, e, f, g, h = vars_[l]
            w(f"      let ee = {e} land msk in")
            w("      let ee = ee lor (ee lsl 32) in")
            w("      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in")
            w(f"      let ch = {g} lxor ({e} land ({f} lxor {g})) in")
            w(f"      let t1 = {h} + s1 + ch + Array.unsafe_get w{l} (r + {rr}) in")
            w(f"      let aa = {a} land msk in")
            w("      let aa = aa lor (aa lsl 32) in")
            w("      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in")
            w(f"      let mj = (({a} lxor {b}) land {c}) lxor ({a} land {b}) in")
            w(f"      let {d} = {d} + t1 in")
            w(f"      let {h} = t1 + s0 + mj in")
        for l in range(lanes):
            vars_[l] = [vars_[l][7]] + vars_[l][:7]
    army = " ".join(vars_[l][j] for l in range(lanes) for j in range(8))
    w(f"      go (r + {GROUP}) msk {army}")
    w("    end")
    w("  in")
    loads = " ".join(
        f"(Array.unsafe_get st{l} {j})" for l in range(lanes) for j in range(8))
    w(f"  go 0 msk {loads}")
    return "\n".join(out)


HEADER = '''(* Interleaved 2-way SHA-256: the batch counterpart to Sha256.

   GENERATED FILE -- emitted by tools/gen_sha256_multi.py. Edit the
   generator and re-run it (python3 tools/gen_sha256_multi.py) instead of
   editing this file by hand; the kernel below is deliberately
   straight-line so that two independent compress dependency chains are
   woven through one instruction stream and hide each other's latency.
   Rationale for the exact formulation lives in the generator's docstring
   and DESIGN.md's performance notes.

   cross-check: Ra_crypto.Checked.sha256_many keeps a bounds-checked
   one-shot reference; test/test_crypto.ml qcheck-diffs digest_many
   against it (ragged lengths, odd batches, block-boundary sizes). *)

let mask = 0xFFFFFFFF

(* Same rotation trick as Sha256: the 32-bit word duplicated into bits
   32..62 turns rotr into one logical shift; every rotation count used is
   >= 2 so the copy of bit 31 that falls off the 63-bit int never lands
   in an extracted window. *)
let dup x = x lor (x lsl 32)

(* ralint: allow P2 -- SHA-256 initial state, read-only after init. *)
let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]
'''

TAIL = '''
(* Single-lane tail once lockstep runs out: remaining whole blocks, then
   FIPS 180-4 padding (0x80, zeros, 64-bit big-endian bit length) in one
   or two synthesised blocks. *)
let finish_lane st w msg pos =
  let len = Bytes.length msg in
  let pos = ref pos in
  while len - !pos >= 64 do
    Sha256.compress_words st w msg !pos;
    pos := !pos + 64
  done;
  let rem = len - !pos in
  let tail_blocks = if rem + 9 <= 64 then 1 else 2 in
  let tail = Bytes.make (64 * tail_blocks) '\\000' in
  Bytes.blit msg !pos tail 0 rem;
  Bytes.set tail rem '\\x80';
  Bytesutil.store64_be tail ((64 * tail_blocks) - 8) (Int64.of_int (8 * len));
  Sha256.compress_words st w tail 0;
  if tail_blocks = 2 then Sha256.compress_words st w tail 64;
  let out = Bytes.create 32 in
  for j = 0 to 7 do
    Bytesutil.store32_be out (4 * j) st.(j)
  done;
  out

let digest_pair st0 st1 w0 w1 out i m0 m1 =
  Array.blit iv 0 st0 0 8;
  Array.blit iv 0 st1 0 8;
  let common = min (Bytes.length m0 / 64) (Bytes.length m1 / 64) in
  for b = 0 to common - 1 do
    compress2 st0 st1 w0 w1 m0 (64 * b) m1 (64 * b)
  done;
  out.(i) <- finish_lane st0 w0 m0 (64 * common);
  out.(i + 1) <- finish_lane st1 w1 m1 (64 * common)

let digest_many msgs =
  let n = Array.length msgs in
  let out = Array.make n Bytes.empty in
  let st0 = Array.make 8 0 and st1 = Array.make 8 0 in
  let w0 = Array.make 64 0 and w1 = Array.make 64 0 in
  let i = ref 0 in
  while !i + 2 <= n do
    digest_pair st0 st1 w0 w1 out !i msgs.(!i) msgs.(!i + 1);
    i := !i + 2
  done;
  if !i < n then out.(!i) <- Sha256.digest msgs.(!i);
  out
'''


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "lib", "crypto", "sha256_multi.ml")
    parts = [HEADER, gen_compress(2), TAIL]
    with open(path, "w") as f:
        f.write("\n".join(parts))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
