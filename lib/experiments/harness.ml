module J = Ra_journal.Journal
module Ev = Ra_journal.Event

let ( let* ) = Result.bind

(* --- violations ----------------------------------------------------------- *)

type violations = string list ref (* newest first *)

let violations () = ref []
let fail v fmt = Printf.ksprintf (fun m -> v := m :: !v) fmt
let to_list v = List.rev !v

(* --- re-runs -------------------------------------------------------------- *)

type rerun = Jobs of int | Shards of int | Same_seed

let label = function
  | Jobs j -> Printf.sprintf "jobs=%d" j
  | Shards s -> Printf.sprintf "shards=%d" s
  | Same_seed -> "same seed"

let compare_reruns ~signature reference reruns =
  let want = signature reference in
  List.map
    (fun (rerun, run) ->
      let l = label rerun in
      match run () with
      | Error e -> Error (Printf.sprintf "%s: %s" l e)
      | Ok r ->
        let got = signature r in
        if String.equal got want then Ok (l ^ ": bit-identical to the reference run")
        else
          Error
            (Printf.sprintf "%s diverged from the reference run:\n  %s\n  %s" l want
               got))
    reruns

(* --- campaign journals ---------------------------------------------------- *)

type 'p campaign = {
  experiment : string;
  params : 'p -> (string * int) list;
  of_params : (string -> int option) -> 'p option;
}

let begin_campaign c j p =
  J.append j
    (Ev.make "campaign"
       (("experiment", Ev.S c.experiment)
       :: List.map (fun (k, v) -> (k, Ev.I v)) (c.params p)));
  J.commit j

let end_campaign j fields =
  J.append j (Ev.make "campaign-end" fields);
  J.commit j

let read_campaign c events =
  if Array.length events = 0 then Error "journal is empty"
  else begin
    let e = events.(0) in
    if e.Ev.tag <> "campaign" then
      Error "journal does not start with a campaign record"
    else if Ev.find_s e "experiment" <> Some c.experiment then
      Error "journal records a different experiment"
    else Option.to_result ~none:"malformed campaign record" (c.of_params (Ev.find_i e))
  end

let experiment disk =
  match J.recover disk with
  | Ok { J.events; _ } when Array.length events > 0 && events.(0).Ev.tag = "campaign" ->
    Ev.find_s events.(0) "experiment"
  | _ -> None

let verifier c events p =
  let vj = J.verifier events in
  begin_campaign c vj p;
  vj

let replay c disk rerun =
  let* r = J.recover disk in
  let events = r.J.events in
  let* p = read_campaign c events in
  let* () =
    if events.(Array.length events - 1).Ev.tag = "campaign-end" then Ok ()
    else Error "journal records an interrupted campaign (no campaign-end)"
  in
  let vj = verifier c events p in
  let* result, fields = rerun r p vj in
  end_campaign vj fields;
  let* () = Result.map_error (fun e -> "replay diverged: " ^ e) (J.verified vj) in
  Ok result
