(* A timing Disk.t decorator: counts syncs and the bytes written
   and, in a traced run, records every append, sync, write and rename as a
   span — so disk.* spans nest inside whatever layer called the journal,
   and the span summary gives each call count. *)

module Disk = Ra_journal.Disk

type counts = {
  mutable append_bytes : int;
  mutable syncs : int;  (** file syncs plus directory syncs *)
  mutable write_bytes : int;
}

let wrap (d : Disk.t) =
  let c =
    { append_bytes = 0; syncs = 0; write_bytes = 0 }
  in
  let disk =
    {
      d with
      Disk.append =
        (fun f b ->
          c.append_bytes <- c.append_bytes + Bytes.length b;
          Trace.span "disk.append" (fun () -> d.Disk.append f b));
      sync =
        (fun f ->
          c.syncs <- c.syncs + 1;
          Trace.span "disk.sync" (fun () -> d.Disk.sync f));
      sync_dir =
        (fun () ->
          c.syncs <- c.syncs + 1;
          Trace.span "disk.sync" d.Disk.sync_dir);
      write =
        (fun f b ->
          c.write_bytes <- c.write_bytes + Bytes.length b;
          Trace.span "disk.write" (fun () -> d.Disk.write f b));
      rename =
        (fun a b -> Trace.span "disk.rename" (fun () -> d.Disk.rename a b));
    }
  in
  (disk, c)

(* A fresh in-memory disk under the decorator. *)
let mem () =
  let store = Disk.Mem.create () in
  let disk, counts = wrap (Disk.Mem.disk store) in
  (store, disk, counts)
