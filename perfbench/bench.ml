(* Shared plumbing: clocks, order statistics, process counters, the
   correctness tally and the episode record every workload returns. *)

let now = Unix.gettimeofday

(* Scratch space inside the checkout: tcp journals, Disk.file probes and
   trace files. The benchmark writes nowhere else. *)
let out_dir = ".bench_out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_dir tag =
  let dir =
    Filename.concat out_dir (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) (Random.bits ()))
  in
  rm_rf dir;
  mkdir_p dir;
  dir

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs and n = Array.length xs in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs and n = Array.length xs in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Mean seconds per call of [f], as the median of [rounds] batches of
   [n] calls: the per-call cost of a layer measured by direct calls. *)
let per_call ?(rounds = 5) n f =
  median
    (Array.init rounds (fun _ ->
         let t0 = now () in
         for i = 0 to n - 1 do
           f i
         done;
         (now () -. t0) /. float_of_int n))

(* --- process counters ---------------------------------------------------- *)

let proc_field pid key =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | line when String.length line > String.length key
                    && String.sub line 0 (String.length key) = key ->
            Scanf.sscanf
              (String.sub line (String.length key)
                 (String.length line - String.length key))
              " %d" float_of_int
        | _ -> go ()
        | exception End_of_file -> nan
      in
      let v = go () in
      close_in ic;
      v

(* Peak resident set (VmHWM) in MiB of [pid] ("self" by default). *)
let peak_rss_mb ?(pid = "self") () = proc_field pid "VmHWM:" /. 1024.

(* Restart this process's VmHWM from its current resident set, so a peak
   can be taken per episode (Linux clear_refs value 5). *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* User + system CPU seconds of another process, from /proc/PID/stat. *)
let cpu_s_of_pid pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let line = input_line ic in
      close_in ic;
      (* fields after the parenthesised command name; utime and stime are
         fields 14 and 15 of the whole line *)
      let rest = String.sub line (String.rindex line ')' + 2)
                   (String.length line - String.rindex line ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- measured windows ---------------------------------------------------- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type window = {
  wall_s : float;
  cpu_s : float;  (** process CPU over the window, all domains *)
  minor_gcs : float;
  major_gcs : float;
  alloc_words : float;
}

(* Time [f] and take the GC and CPU deltas across it. *)
let window f =
  let g0 = Gc.quick_stat () and c0 = cpu_s () and t0 = now () in
  let r = f () in
  let t1 = now () and c1 = cpu_s () and g1 = Gc.quick_stat () in
  let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  ( r,
    {
      wall_s = t1 -. t0;
      cpu_s = c1 -. c0;
      minor_gcs = float_of_int (g1.minor_collections - g0.minor_collections);
      major_gcs = float_of_int (g1.major_collections - g0.major_collections);
      alloc_words = alloc g1 -. alloc g0;
    } )

(* --- correctness --------------------------------------------------------- *)

(* Every check of every run lands here: a failed check is counted and
   reported, never dropped. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt n = tally.attempted <- tally.attempted + n

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        tally.failed <- tally.failed + 1;
        prerr_endline ("perfbench: check failed: " ^ msg)
      end)
    fmt

(* --- episodes ------------------------------------------------------------ *)

type episode = {
  items : int;  (** reports or devices completed in the window *)
  win : window;
  jobs : int;  (** domains the window ran on (the server's for tcp) *)
  latencies_ms : float array;  (** one per response the user waits for *)
  extra : (string * float) list;  (** workload-specific end-to-end values *)
  layer : (string * float) list;  (** per-layer values (traced episodes) *)
}

let items_per_s e = float_of_int e.items /. e.win.wall_s

(* GC and pool counters of an untraced episode, suffixed by workload. *)
let runtime_counters name e =
  let per_item x = x /. float_of_int e.items in
  [
    ("pool.utilization." ^ name, e.win.cpu_s /. (e.win.wall_s *. float_of_int e.jobs));
    ("gc.minor_per_item." ^ name, per_item e.win.minor_gcs);
    ("gc.major_per_item." ^ name, per_item e.win.major_gcs);
    ("gc.alloc_kb_per_item." ^ name, per_item (e.win.alloc_words *. 8. /. 1024.));
  ]
