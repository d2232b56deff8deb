open Ra_sim

type device_id = string

(* A roster entry is either a live device or a recipe for one. Virtual
   entries exist for million-device fleets: materializing 1M simulators up
   front is gigabytes of live heap that the GC then walks on every minor
   collection — the roll-call wall ROADMAP item 2 describes. A virtual
   device is created inside the roll-call task that attests it and dropped
   as soon as its report is in, so the live set stays O(shard width).

   Both kinds carry the fleet's release image for their size (see
   [release_image]): a device copies it into its memory and a verifier
   view reads it, so neither regenerates it. *)
type entry =
  | Materialized of Ra_device.Device.t * Bytes.t
  | Virtual of Ra_device.Device.config * Bytes.t * (Ra_device.Device.t -> unit) option

type t = {
  master_secret : Bytes.t;
  store : Ra_cache.Store.t;
  firmware_seed : int;
  images : (int, Bytes.t) Hashtbl.t; (* image size -> release image *)
  mutable roster : (device_id * entry) list; (* newest first *)
  entries : (device_id, entry) Hashtbl.t; (* by id: O(1) lookup and duplicate check *)
}

(* One firmware image for the whole fleet, derived from the master secret:
   provisioned devices run the same release, which is exactly what makes
   the content-addressed store pay off — every clean device's blocks are
   already in it after the first measurement anywhere in the fleet. *)
let create ?stripes ~master_secret () =
  let digest =
    Ra_crypto.Sha256.digest (Bytes.cat (Bytes.of_string "fleet firmware v1:") master_secret)
  in
  {
    master_secret;
    store = Ra_cache.Store.create ?stripes ();
    firmware_seed = Ra_crypto.Bytesutil.load32_be digest 0;
    images = Hashtbl.create 2;
    roster = [];
    entries = Hashtbl.create 64;
  }

let derive_key t id =
  Ra_crypto.Hkdf.derive ~ikm:t.master_secret
    ~info:(Bytes.of_string ("ra-safety attestation key v1:" ^ id))
    ~length:32 ()

let store t = t.store

(* Generated once per image size, at provisioning time. Provisioning is
   sequential, so the table is never written inside a fan-out; readers
   only ever see the image through the entries that carry it. *)
let release_image t ~size =
  match Hashtbl.find_opt t.images size with
  | Some image -> image
  | None ->
    let image = Ra_device.Device.firmware_image ~seed:t.firmware_seed ~size in
    Hashtbl.replace t.images size image;
    image

let fleet_config t id config =
  let config =
    {
      config with
      Ra_device.Device.key = derive_key t id;
      seed = t.firmware_seed;
      store = Some t.store;
    }
  in
  (config, release_image t ~size:(config.blocks * config.block_size))

let register t id entry =
  if Hashtbl.mem t.entries id then invalid_arg "Fleet.provision: duplicate id";
  Hashtbl.replace t.entries id entry;
  t.roster <- (id, entry) :: t.roster

let provision t id ?(config = Ra_device.Device.default_config) () =
  let config, image = fleet_config t id config in
  let device = Ra_device.Device.create ~image config in
  register t id (Materialized (device, image));
  device

let provision_virtual t id ?(config = Ra_device.Device.default_config) ?tamper () =
  let config, image = fleet_config t id config in
  register t id (Virtual (config, image, tamper))

let materialize = function
  | Materialized (device, _) -> device
  | Virtual (config, image, tamper) ->
    let device = Ra_device.Device.create ~image config in
    Option.iter (fun f -> f device) tamper;
    device

let device t id = materialize (Hashtbl.find t.entries id)

let view = function
  | Materialized (device, image) ->
    Verifier.of_config ~expected_image:image device.Ra_device.Device.config
  | Virtual (config, image, _) -> Verifier.of_config ~expected_image:image config

let verifier_for t id = view (Hashtbl.find t.entries id)

let enrolled t = List.rev_map fst t.roster

type roll_call = {
  clean : device_id list;
  tampered : device_id list;
  digest_requests : int;
  cache_hits : int;
  store_hits : int;
  hashed : int;
  batch_hashed : int;
      (* of [hashed], how many went through the store's batch entry point;
         equals [hashed] when every party measures atomically (both the
         prover's round and the verifier's report check batch their
         digests), making it as jobs-invariant as the rest. *)
  distinct_blocks : int;
  shards : int;
  shard_roots : Bytes.t array;
  fleet_root : Bytes.t;
}

let hit_rate rc =
  if rc.digest_requests = 0 then 0.
  else float_of_int (rc.cache_hits + rc.store_hits) /. float_of_int rc.digest_requests

(* --- hierarchical Merkle aggregation ------------------------------------- *)

(* The aggregation tree is built over fixed-width SEGMENTS of the roster,
   not over shards: segment s covers devices [s*1024, (s+1)*1024), whatever
   the shard count, and the fleet root is the Merkle root over the segment
   roots. Decoupling the tree shape from the parallel fan-out is what makes
   the fleet root invariant across --shards and --jobs; shards only decide
   which domain computes which contiguous run of segments. Shard roots
   (the root over each shard's own segment roots) are the diagnosis handle:
   a divergent fleet root is localized by comparing shard roots, then the
   shard's segment roots, then the 1024 reports of the odd segment out. *)
let segment_size = 1024

let fleet_hash = Ra_crypto.Algo.SHA_256

let verdict_byte = function
  | Some Verifier.Clean -> "\x01"
  | Some Verifier.Tampered -> "\x02"
  | None -> "\x00"

(* Report leaf: id, verdict and the report MAC — the verifier-checked
   transcript digest, so two runs agree on a leaf only if the device sent
   byte-identical evidence. *)
let report_leaf (id, verdict, mac) =
  Bytes.concat Bytes.empty
    [ Bytes.of_string id; Bytes.of_string (verdict_byte verdict); mac ]

let segment_count n = (n + segment_size - 1) / segment_size

(* Attest one roster entry: the full on-demand protocol against a fresh
   verifier view. Returns the verdict, the report MAC (the Merkle leaf
   material) and this device's memo-hit delta, so the caller never has to
   hold the device itself — materialized or virtual, the entry is dropped
   when the task returns. *)
let attest_entry mp_config ~net_delay (id, entry) =
  let dev = materialize entry in
  let memo_hits cache =
    match cache with
    | None -> 0
    | Some cache -> (Ra_cache.stats cache).Ra_cache.hits
  in
  let hits0 = memo_hits dev.Ra_device.Device.cache in
  let verdict = ref None in
  let mac = ref Bytes.empty in
  let verifier = view entry in
  Protocol.on_demand dev verifier mp_config ~net_delay
    ~auth_time:(Timebase.us 200)
    ~on_done:(fun events ->
      verdict := Some events.Protocol.verdict;
      mac := events.Protocol.report.Report.mac)
    ();
  Ra_device.Device.run dev;
  ((id, !verdict, !mac), memo_hits dev.Ra_device.Device.cache - hits0)

(* Counter barrier: store counters are read before the fan-out and after it
   has fully settled. WHICH party computes a shared digest first is a race
   under [jobs] > 1, but the store computes each distinct content exactly
   once, so the deltas — and therefore the whole result — are invariant
   under [jobs] and [shards]. *)
let assemble t ~shards ~shard_roots ~fleet_root ~results ~memo_hits
    ~lookups0 ~computed0 ~batched0 ~journal =
  let clean = ref [] and tampered = ref [] in
  Array.iter
    (fun (id, verdict, _mac) ->
      match verdict with
      | Some Verifier.Clean -> clean := id :: !clean
      | Some Verifier.Tampered | None -> tampered := id :: !tampered)
    results;
  let lookups = Ra_cache.Store.lookups t.store - lookups0 in
  let computed = Ra_cache.Store.computed t.store - computed0 in
  let result =
    {
      clean = List.rev !clean;
      tampered = List.rev !tampered;
      digest_requests = memo_hits + lookups;
      cache_hits = memo_hits;
      store_hits = lookups - computed;
      hashed = computed;
      batch_hashed = Ra_cache.Store.batched_computes t.store - batched0;
      distinct_blocks = Ra_cache.Store.distinct_contents t.store;
      shards;
      shard_roots;
      fleet_root;
    }
  in
  (* Cache/store provenance: one committed record per roll call, after the
     parallel fan-out has fully settled — the counters and roots are
     jobs- and shards-invariant, so the record is too. Replay re-runs the
     roll call and byte-compares this record, which now re-verifies the
     whole hierarchical digest, not just the flat counters. *)
  (match journal with
  | None -> ()
  | Some j ->
    let open Ra_journal in
    Journal.append j
      (Event.make "roll-call"
         [
           ("devices", Event.I (Array.length results));
           ("shards", Event.I result.shards);
           ("clean", Event.I (List.length result.clean));
           ("tampered", Event.I (List.length result.tampered));
           ("requests", Event.I result.digest_requests);
           ("cache-hits", Event.I result.cache_hits);
           ("store-hits", Event.I result.store_hits);
           ("hashed", Event.I result.hashed);
           ("batch-hashed", Event.I result.batch_hashed);
           ("distinct", Event.I result.distinct_blocks);
           ("fleet-root", Event.B result.fleet_root);
           ("shard-roots", Event.B (Bytes.concat Bytes.empty
                                      (Array.to_list result.shard_roots)));
         ]);
    Journal.commit j);
  result

(* Devices are fully independent (own engine, own memory, own verifier
   view), so the roll call fans out over the deterministic domain pool,
   one task per device. *)
let roll_call t ?jobs ?journal ?(net_delay = Timebase.ms 40) mp_config =
  let roster = Array.of_list (List.rev t.roster) in
  let n = Array.length roster in
  let lookups0 = Ra_cache.Store.lookups t.store in
  let computed0 = Ra_cache.Store.computed t.store in
  let batched0 = Ra_cache.Store.batched_computes t.store in
  let attested =
    Ra_parallel.parallel_init ?jobs n (fun i ->
        attest_entry mp_config ~net_delay roster.(i))
  in
  let results = Array.map fst attested in
  let memo_hits = Array.fold_left (fun acc (_, d) -> acc + d) 0 attested in
  let shard_roots, fleet_root =
    if n = 0 then ([||], Bytes.empty)
    else begin
      let leaves = Array.map report_leaf results in
      let seg_roots =
        Array.init (segment_count n) (fun s ->
            let lo = s * segment_size in
            let len = min segment_size (n - lo) in
            Merkle.root_of_leaves fleet_hash ~leaves:(Array.sub leaves lo len))
      in
      let root = Merkle.root_of_leaves fleet_hash ~leaves:seg_roots in
      ([| root |], root)
    end
  in
  assemble t ~shards:1 ~shard_roots ~fleet_root ~results ~memo_hits ~lookups0
    ~computed0 ~batched0 ~journal

(* Sharded roll call: the roster's segments are split into [shards]
   contiguous runs, one pool task per shard. Each task walks its own
   devices sequentially — materializing virtual entries on the fly — and
   reduces every finished segment to its root immediately, so a shard's
   live state is one segment of leaves plus its report triples. The merge
   at the pool barrier is pure: concatenation in shard order is roster
   order, and the fleet root over the concatenated segment roots is the
   same root the flat roll call computes. *)
let sharded_roll_call t ?jobs ?shards ?journal ?(net_delay = Timebase.ms 40)
    mp_config =
  let roster = Array.of_list (List.rev t.roster) in
  let n = Array.length roster in
  if n = 0 then
    let lookups0 = Ra_cache.Store.lookups t.store in
    let computed0 = Ra_cache.Store.computed t.store in
    let batched0 = Ra_cache.Store.batched_computes t.store in
    assemble t ~shards:1 ~shard_roots:[||] ~fleet_root:Bytes.empty
      ~results:[||] ~memo_hits:0 ~lookups0 ~computed0 ~batched0 ~journal
  else begin
    let requested =
      max 1 (Option.value shards ~default:(Ra_parallel.default_jobs ()))
    in
    let nsegs = segment_count n in
    (* a segment is never split across shards, so at most one shard per
       segment is meaningful *)
    let nshards = min requested nsegs in
    let segs_per, extra = (nsegs / nshards, nsegs mod nshards) in
    let seg_lo s = (s * segs_per) + min s extra in
    let lookups0 = Ra_cache.Store.lookups t.store in
    let computed0 = Ra_cache.Store.computed t.store in
    let batched0 = Ra_cache.Store.batched_computes t.store in
    let shard_outputs =
      Ra_parallel.parallel_init ?jobs nshards (fun s ->
          let seg0 = seg_lo s and seg1 = seg_lo (s + 1) in
          let dev_lo = seg0 * segment_size in
          let dev_hi = min n (seg1 * segment_size) in
          let results = Array.make (dev_hi - dev_lo) ("", None, Bytes.empty) in
          let memo_hits = ref 0 in
          let seg_roots = Array.make (seg1 - seg0) Bytes.empty in
          for seg = seg0 to seg1 - 1 do
            let lo = seg * segment_size in
            let len = min segment_size (n - lo) in
            let leaves =
              Array.init len (fun k ->
                  let r, d =
                    attest_entry mp_config ~net_delay roster.(lo + k)
                  in
                  results.(lo + k - dev_lo) <- r;
                  memo_hits := !memo_hits + d;
                  report_leaf r)
            in
            seg_roots.(seg - seg0) <- Merkle.root_of_leaves fleet_hash ~leaves
          done;
          (results, seg_roots, !memo_hits))
    in
    let results = Array.concat (Array.to_list (Array.map (fun (r, _, _) -> r) shard_outputs)) in
    let memo_hits = Array.fold_left (fun acc (_, _, d) -> acc + d) 0 shard_outputs in
    let shard_roots =
      Array.map
        (fun (_, seg_roots, _) -> Merkle.root_of_leaves fleet_hash ~leaves:seg_roots)
        shard_outputs
    in
    let all_seg_roots =
      Array.concat (Array.to_list (Array.map (fun (_, sr, _) -> sr) shard_outputs))
    in
    let fleet_root = Merkle.root_of_leaves fleet_hash ~leaves:all_seg_roots in
    assemble t ~shards:nshards ~shard_roots ~fleet_root ~results ~memo_hits
      ~lookups0 ~computed0 ~batched0 ~journal
  end

let attest_all t ?net_delay mp_config = roll_call t ~jobs:1 ?net_delay mp_config
