(* In-memory span recorder for the traced run.

   Spans are recorded only by the benchmark's own code, around its calls
   into each layer; nothing inside the program under test is touched. A
   span has a name, a start, an end and the span open around it when it
   started (its parent); every span recorded while [with_rid] is active
   carries that report id. Spans stay in memory until [write]. Only the
   main domain records: calls made from pool domains run untraced. *)

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  rid : int;  (** report id; 0 when outside any report *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let rid = ref 0

let reset () =
  recorded := [];
  open_ids := [];
  next_id := 0;
  rid := 0

let active () = !enabled && Domain.is_main_domain ()

let span name f =
  if not (active ()) then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Bench.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Bench.now () in
        open_ids := List.tl !open_ids;
        recorded := { id; parent; rid = !rid; name; start; stop } :: !recorded)
  end

(* A span whose ends were taken elsewhere (e.g. a pipelined request whose
   response arrives in a later read). Top level. *)
let record ?(rid = 0) name ~start ~stop =
  if active () then begin
    let id = !next_id in
    incr next_id;
    recorded := { id; parent = -1; rid; name; start; stop } :: !recorded
  end

let with_rid r f =
  let saved = !rid in
  rid := r;
  Fun.protect f ~finally:(fun () -> rid := saved)

let spans () = List.rev !recorded

(* Durations in seconds of every span named [name], in start order. *)
let durations name =
  spans ()
  |> List.filter (fun s -> s.name = name)
  |> List.map (fun s -> s.stop -. s.start)
  |> Array.of_list

type summary = { count : int; total_s : float; self_s : float }

(* Per-name totals. Self time is a span's duration minus the part of it
   its children cover; children of one span never overlap (they run on
   the same domain, one after another), so that is their summed
   duration. *)
let summarize () =
  let all = spans () in
  let child_cover = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_cover s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child_cover s.parent) ~default:0.))
    all;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt child_cover s.id) ~default:0. in
      let c = Option.value (Hashtbl.find_opt by_name s.name)
                ~default:{ count = 0; total_s = 0.; self_s = 0. } in
      Hashtbl.replace by_name s.name
        { count = c.count + 1; total_s = c.total_s +. d; self_s = c.self_s +. self })
    all;
  by_name

let mean_us ?(self = false) tbl name =
  match Hashtbl.find_opt tbl name with
  | None | Some { count = 0; _ } -> nan
  | Some s -> 1e6 *. (if self then s.self_s else s.total_s) /. float_of_int s.count

(* Write every span to [path] as tab-separated
   [id parent rid name start_us duration_us], times relative to the first
   span. *)
let write path =
  let all = spans () in
  let t0 = List.fold_left (fun m s -> min m s.start) infinity all in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" s.id s.parent s.rid s.name
        (1e6 *. (s.start -. t0))
        (1e6 *. (s.stop -. s.start)))
    all;
  close_out oc
