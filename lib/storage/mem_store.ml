(* The layout is the record table itself. Its probe never answers
   "absent": an uncommitted delete removes the row, so a lock-free miss
   could be a dirty read — the lookup waits for the lock instead. *)
module Phys = struct
  type t = bytes Rid.Tbl.t

  let insert t ~undo:_ rid payload = Rid.Tbl.replace t rid payload
  let read = Rid.Tbl.find_opt
  let update = Rid.Tbl.replace
  let delete = Rid.Tbl.remove
  let iter t f = Rid.Tbl.iter (fun rid _ -> f rid) t
  let count = Rid.Tbl.length
  let mem = Rid.Tbl.mem
  let definitely_absent _ _ = false
  let false_positive _ = ()
  let load t entries = List.iter (fun (rid, payload) -> Rid.Tbl.replace t rid payload) entries
  let flush _ = ()
  let on_anchor _ ~dirty:_ = ()
  let crash = Rid.Tbl.reset
  let counters _ = []
end

include Record_core.Make (Phys)

(* The lock site consults a private fault plane, as the WAL always did:
   nothing can arm it, so the main-memory store never injects faults. *)
let create ?flush_spin ?flush_sleep ?durability ?rid_base ?rid_stride ?wal_segment_bytes
    ?ckpt_full_every ?auto_ckpt_bytes ~mgr ~name () =
  create ?flush_spin ?flush_sleep ?durability ?rid_base ?rid_stride ?wal_segment_bytes
    ?ckpt_full_every ?auto_ckpt_bytes ~faults:(Faults.create ()) ~mgr ~name
    (Rid.Tbl.create 256)
