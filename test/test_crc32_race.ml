(* The first CRC calls of a process may come from several domains at
   once (a fleet-chaos run at --jobs 2 with no journal does exactly
   that). Every domain must get the digest a sequential caller gets —
   in particular, none may trip over a table that is still being
   initialised. Nothing in this executable computes a CRC before the
   domains start. *)

let domains = 4

let payloads =
  Array.init 8 (fun i -> Bytes.init (1 + (37 * i)) (fun k -> Char.chr ((k * 7 + i) land 0xff)))

(* ralint: allow P1 — raw domains behind a spin barrier, so the first
   calls overlap; the pool gives no such start-together guarantee *)
let test_first_calls_race () =
  let ready = Atomic.make 0 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            (* spin until every domain is up, so the first calls overlap *)
            Atomic.incr ready;
            while Atomic.get ready < domains do
              Domain.cpu_relax ()
            done;
            match Array.map Ra_crypto.Crc32.digest payloads with
            | digests -> Ok digests
            | exception e -> Error (Printexc.to_string e)))
  in
  let results = Array.map Domain.join workers in
  let sequential = Array.map Ra_crypto.Crc32.digest payloads in
  Array.iteri
    (fun d result ->
      match result with
      | Error e -> Alcotest.failf "domain %d raised %s" d e
      | Ok digests ->
          Alcotest.(check (array int))
            (Printf.sprintf "domain %d = sequential" d)
            sequential digests)
    results;
  Alcotest.(check int) "check value" 0xCBF43926
    (Ra_crypto.Crc32.digest (Bytes.of_string "123456789"))

let () =
  Alcotest.run "crc32_race"
    [
      ( "domains",
        [ Alcotest.test_case "first calls race" `Quick test_first_calls_race ] );
    ]
