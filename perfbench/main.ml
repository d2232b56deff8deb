(* The attestation benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures workload W for about S seconds with tracing off and
   prints the end-to-end metrics. --trace 1 runs every workload once
   untraced and once traced, plus the layer micro set, and prints the
   per-layer metrics. Either way the last line of standard output is one
   JSON object; the exit code is non-zero when any correctness check
   failed. *)

module type WORKLOAD = sig
  val setup : seed:int -> unit
  val prepare : seed:int -> traced:bool -> Bench.episode
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("ingest", (module Ingest));
    ("tcp", (module Tcp_load));
    ("rollcall", (module Rollcall));
    ("supervise", (module Supervise));
  ]

(* End-to-end metrics, the same four for every workload. *)
let end_to_end =
  [ ("items_per_s", "1/s"); ("latency_p50_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [
    ("wire.decode_us", "us"); ("core.submit_us", "us"); ("core.submit_scale_x", "x");
    ("core.drain_us_per_report", "us"); ("core.drain_scale_x", "x"); ("core.recover_s", "s");
    ("disk.append_us", "us"); ("disk.sync_us", "us"); ("disk.syncs_per_report", "count");
    ("disk.bytes_per_report", "B"); ("journal.append_us", "us"); ("journal.commit_us", "us");
    ("journal.commit_scale_x", "x"); ("journal.recover_ms", "ms");
    ("disk_file.append_us", "us"); ("disk_file.sync_us", "us"); ("world.verify_us", "us");
    ("world.root_ms", "ms"); ("world.root_scale_x", "x"); ("fleet.verifier_for_us", "us");
    ("verifier.verify_us", "us"); ("verifier.expected_mac_us", "us"); ("report.decode_us", "us");
    ("fleet.materialize_us", "us"); ("verifier.of_device_us", "us"); ("mp.measure_us", "us");
    ("rollcall.verify_us", "us"); ("merkle.root_us", "us"); ("merkle.scale_x", "x");
    ("store.digest_many_hit_us", "us"); ("store.digest_many_miss_us", "us");
    ("store.scale_x", "x"); ("store.miss_scale_x", "x"); ("store.hit_rate", "ratio");
    ("store.hashed", "count"); ("sha256.mb_s", "MiB/s"); ("hmac.mac_us", "us");
    ("tcp.acks_per_read", "count"); ("tcp.busy_share", "ratio");
    ("supervisor.rounds", "count"); ("supervisor.attestations", "count");
    ("supervisor.timeouts", "count"); ("disk.syncs.supervise", "count");
    ("disk.bytes.supervise", "B"); ("disk.sync_us.supervise", "us");
    ("disk.append_us.supervise", "us"); ("trace.overhead_x", "x");
  ]
  @ List.concat_map
      (fun (w, _) ->
        [
          ("pool.utilization." ^ w, "ratio"); ("gc.minor_per_item." ^ w, "count");
          ("gc.major_per_item." ^ w, "count"); ("gc.alloc_kb_per_item." ^ w, "KiB");
        ])
      workloads

(* --- output -------------------------------------------------------------- *)

let json_metrics table values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name values with
           | Some v when Float.is_finite v -> v
           | Some _ | None ->
               Bench.check false "metric %s was not measured" name;
               0.
         in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       table)

let finish table values =
  List.iter
    (fun (name, _) ->
      Bench.check (List.mem_assoc name table) "metric %s is not declared" name)
    values;
  let metrics = json_metrics table values in
  let t = Bench.tally in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) (max 1 t.attempted) t.failed metrics;
  exit (if t.failed = 0 then 0 else 1)

(* --- untraced: end-to-end ------------------------------------------------ *)

(* One episode from a compacted heap, preceded by one timed set-up, with
   the peak resident set taken over the episode alone (the server's, when
   the episode reports one). *)
let episode (module W : WORKLOAD) ~seed run =
  Gc.compact ();
  let (), setup_s = Bench.timed (fun () -> W.setup ~seed) in
  Bench.reset_peak_rss ();
  let e = run ~traced:false in
  let rss = Bench.peak_rss_mb () in
  let extra = ("setup_s", setup_s) :: e.Bench.extra in
  let extra = if List.mem_assoc "peak_rss_mb" extra then extra else ("peak_rss_mb", rss) :: extra in
  { e with Bench.extra }

let measure name (module W : WORKLOAD) ~seed ~seconds =
  let run = W.prepare ~seed in
  (* warm-up: the first episode of a process runs measurably slower *)
  ignore (episode (module W) ~seed run);
  let t0 = Bench.now () in
  let rec loop acc =
    let acc = episode (module W) ~seed run :: acc in
    let elapsed = Bench.now () -. t0 in
    if elapsed +. (elapsed /. float_of_int (List.length acc)) <= seconds then loop acc
    else Array.of_list (List.rev acc)
  in
  let eps = loop [] in
  let med f = Bench.median (Array.map f eps) in
  let latencies = Array.concat (Array.to_list (Array.map (fun e -> e.Bench.latencies_ms) eps)) in
  let extra key = med (fun e -> Option.value (List.assoc_opt key e.Bench.extra) ~default:nan) in
  let rss = extra "peak_rss_mb" and setup_s = extra "setup_s" in
  let values =
    [
      ("items_per_s", med Bench.items_per_s);
      ("latency_p50_ms", Bench.median latencies);
      ("setup_s", setup_s);
      ("peak_rss_mb", rss);
    ]
  in
  (* The same numbers under the names an operator of each workload reads,
     plus what the JSON leaves out. *)
  let say metric v unit = Printf.printf "%s %s %.6g %s\n" name metric v unit in
  let n = Array.length latencies in
  (match name with
  | "ingest" | "tcp" ->
      say "reports_per_s" (med Bench.items_per_s) "reports/s";
      say "ack_p50_ms" (Bench.median latencies) "ms";
      say "ack_p99_ms" (Bench.percentile latencies 0.99) "ms";
      Printf.printf "%s ack samples %d, %d beyond p99\n" name n (n - int_of_float (ceil (0.99 *. float_of_int n)));
      if name = "ingest" then say "recover_reports_per_s" (extra "recover_reports_per_s") "reports/s"
  | "rollcall" -> say "devices_per_s" (med Bench.items_per_s) "devices/s"
  | _ -> say "campaign_s" (med (fun e -> e.Bench.win.wall_s)) "s");
  say "setup_s" setup_s "s";
  say "peak_rss_mb" rss "MiB";
  let t = Bench.tally in
  say "error_rate" (float_of_int t.failed /. float_of_int (max 1 t.attempted)) "failed/attempted";
  Printf.printf "%s episodes %d in %.1f s:%s\n%!" name (Array.length eps) (Bench.now () -. t0)
    (String.concat ""
       (Array.to_list (Array.map (fun e -> Printf.sprintf " %.4g/s" (Bench.items_per_s e)) eps)));
  finish end_to_end values

(* --- traced: per layer --------------------------------------------------- *)

let print_spans name =
  let s = Trace.summarize () in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.Trace.total_s a.Trace.total_s) rows in
  Printf.eprintf "spans of %s: name count mean_us self_mean_us total_ms\n" name;
  List.iter
    (fun (k, v) ->
      let c = float_of_int v.Trace.count in
      Printf.eprintf "  %-26s %7d %11.2f %11.2f %10.1f\n" k v.Trace.count
        (1e6 *. v.Trace.total_s /. c) (1e6 *. v.Trace.self_s /. c) (1e3 *. v.Trace.total_s))
    rows;
  flush stderr

let traced named ~seed =
  Bench.mkdir_p Bench.out_dir;
  let values = ref [] in
  List.iter
    (fun (name, (module W : WORKLOAD)) ->
      let run = W.prepare ~seed in
      let plain = run ~traced:false in
      Trace.reset ();
      Trace.enabled := true;
      let t = Fun.protect (fun () -> run ~traced:true) ~finally:(fun () -> Trace.enabled := false) in
      (* untraced episodes on both sides of the traced one, so warm-up
         does not bias the overhead ratio either way *)
      let overhead () =
        let after = run ~traced:false in
        2. *. t.Bench.win.wall_s /. (plain.Bench.win.wall_s +. after.Bench.win.wall_s)
      in
      Trace.write (Filename.concat Bench.out_dir (Printf.sprintf "trace-%s.tsv" name));
      print_spans name;
      values := Bench.runtime_counters name plain @ t.Bench.layer @ !values;
      if name = named then values := ("trace.overhead_x", overhead ()) :: !values)
    workloads;
  finish per_layer (Micro.run ~seed @ !values)

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload ingest|tcp|rollcall|supervise --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve"; port; dir; devices; seed ] ->
      Tcp_load.serve_child ~port:(int_of_string port) ~dir ~devices:(int_of_string devices)
        ~seed:(int_of_string seed)
  | _ :: args ->
      let rec parse acc = function
        | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
      let w = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
      if int "trace" = 1 then traced name ~seed
      else measure name w ~seed ~seconds:(float_of_int seconds)
  | [] -> usage ()
