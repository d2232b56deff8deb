(* Direct calls on single layers for the traced run: per-call costs that
   no workload isolates, and scaling ratios — per-item cost at 40n divided
   by per-item cost at n — so that superlinear cost shows as a number. *)

open Ra_server
module Disk = Ra_journal.Disk
module Journal = Ra_journal.Journal
module Ev = Ra_journal.Event
module Store = Ra_cache.Store

let sha = Ra_crypto.Algo.SHA_256

(* A deterministic content of [len] bytes, distinct per [tag]. *)
let content ~seed tag len =
  Ra_sim.Prng.bytes (Ra_sim.Prng.create ~seed:((seed * 1_000_003) + tag)) len

let report_event (item : Loadgen.item) =
  Ev.make "report"
    [ ("device", Ev.S item.device); ("seq", Ev.I item.seq); ("report", Ev.B item.report) ]

(* Journal append/commit at log lengths n and 40n, then recovery of the
   40n-record log; one report-sized record per commit, as Core does. *)
let journal plan =
  let n = 50 in
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let j = Journal.create disk in
  let costs k =
    let a = ref 0. and c = ref 0. in
    for i = 0 to k - 1 do
      let ev = report_event plan.(i mod Array.length plan) in
      let (), ta = Bench.timed (fun () -> Journal.append j ev) in
      let (), tc = Bench.timed (fun () -> Journal.commit j) in
      a := !a +. ta;
      c := !c +. tc
    done;
    (!a /. float_of_int k, !c /. float_of_int k)
  in
  let append_n, commit_n = costs n in
  ignore (costs (38 * n));
  let _, commit_40n = costs n in
  let r, recover_s = Bench.timed (fun () -> Journal.recover disk) in
  Bench.check
    (match r with Ok r -> Array.length r.Journal.events = 40 * n | Error _ -> false)
    "micro: journal recovery lost records";
  [
    ("journal.append_us", 1e6 *. append_n);
    ("journal.commit_us", 1e6 *. commit_n);
    ("journal.commit_scale_x", commit_40n /. commit_n);
    ("journal.recover_ms", 1e3 *. recover_s);
  ]

(* The real file backend with report-sized records: what one fsync per
   report costs, and so what group commit could save. *)
let disk_file plan =
  let dir = Bench.scratch_dir "diskfile" in
  let d = Disk.file ~dir in
  let k = 100 in
  let a = ref 0. and s = ref 0. in
  for i = 0 to k - 1 do
    let record = Ev.encode (report_event plan.(i)) in
    let (), ta = Bench.timed (fun () -> d.Disk.append "wal" record) in
    let (), ts = Bench.timed (fun () -> d.Disk.sync "wal") in
    a := !a +. ta;
    s := !s +. ts
  done;
  Bench.rm_rf dir;
  [
    ("disk_file.append_us", 1e6 *. !a /. float_of_int k);
    ("disk_file.sync_us", 1e6 *. !s /. float_of_int k);
  ]

let world ~seed =
  let per_device d =
    let w = World.build ~devices:d ~seed in
    Bench.per_call (max 1 (2560 / d)) (fun _ -> ignore (World.root w)) /. float_of_int d
  in
  let small = per_device 64 in
  [ ("world.root_scale_x", per_device 2560 /. small) ]

let merkle ~seed =
  let per_leaf k =
    let leaves = Array.init k (fun i -> content ~seed i 32) in
    Bench.per_call ~rounds:3 (max 1 (40960 / k / 4)) (fun _ ->
        ignore (Ra_core.Merkle.root_of_leaves sha ~leaves))
    /. float_of_int k
  in
  let small = per_leaf 1024 in
  [ ("merkle.root_us", 1e6 *. small *. 1024.); ("merkle.scale_x", per_leaf 40960 /. small) ]

(* Store.digest_many on batches of n and 40n firmware-sized blocks, all
   hits (warm) and all misses (never-seen contents). Per-block costs. *)
let store ~seed =
  let n = 16 and block = 256 in
  let hit k =
    let s = Store.create () in
    let blocks = Array.init k (fun i -> content ~seed i block) in
    ignore (Store.digest_many s sha blocks);
    Bench.per_call (max 1 (6400 / k)) (fun _ -> ignore (Store.digest_many s sha blocks))
    /. float_of_int k
  in
  let miss k =
    let s = Store.create () in
    let calls = max 1 (6400 / k) and rounds = 3 in
    let batches =
      Array.init (calls * rounds) (fun c ->
          Array.init k (fun i -> content ~seed (100_000 + (c * k) + i) block))
    in
    let r = ref 0 in
    Bench.per_call ~rounds calls (fun _ ->
        ignore (Store.digest_many s sha batches.(!r));
        incr r)
    /. float_of_int k
  in
  let hit_n = hit n and miss_n = miss n in
  [
    ("store.digest_many_hit_us", 1e6 *. hit_n);
    ("store.digest_many_miss_us", 1e6 *. miss_n);
    ("store.scale_x", hit (40 * n) /. hit_n);
    ("store.miss_scale_x", miss (40 * n) /. miss_n);
  ]

let crypto ~seed =
  let mib = content ~seed 1 (1 lsl 20) in
  let key = content ~seed 2 32 and msg = content ~seed 3 256 in
  [
    ("sha256.mb_s", 1. /. Bench.per_call 4 (fun _ -> ignore (Ra_crypto.Sha256.digest mib)));
    ("hmac.mac_us", 1e6 *. Bench.per_call 2000 (fun _ -> ignore (Ra_crypto.Hmac.Sha256.mac ~key msg)));
  ]

(* Core.drain per report with n and 40n reports queued. *)
let drain ~seed plan =
  let n = Ingest.drain_every in
  let per_report ?(reps = 1) k =
    Bench.median
      (Array.init reps (fun _ ->
           let disk = Disk.Mem.disk (Disk.Mem.create ()) in
           let core =
             Core.create ~config:{ (Ingest.config ~seed) with Core.capacity = k } disk
           in
           for i = 0 to k - 1 do
             let (item : Loadgen.item) = plan.(i) in
             ignore
               (Core.handle core
                  (Wire.Submit { device = item.device; seq = item.seq; report = item.report }))
           done;
           let drained, t = Bench.timed (fun () -> Core.drain ~jobs:Ingest.jobs core) in
           Bench.check (drained = k) "micro: drained %d of %d" drained k;
           t /. float_of_int k))
  in
  let small = per_report ~reps:5 n in
  [ ("core.drain_scale_x", per_report (40 * n) /. small) ]

let run ~seed =
  let plan = Ingest.plan ~seed in
  List.concat
    [
      journal plan; disk_file plan; world ~seed; merkle ~seed; store ~seed; crypto ~seed;
      drain ~seed plan;
    ]
