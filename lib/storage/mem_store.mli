(** Dali-like main-memory record store: {!Record_core.Make} over a hash
    table.

    Records live in a hash table; there is no pager or buffer pool, so the
    read path is a single probe — the point of MM-Ode. Durability and
    transaction semantics are the disk store's, from the same core: the
    same WAL format, the same per-transaction undo, the same strict 2PL
    record locking, so the two backends are interchangeable behind
    {!Store.t} (experiment T7 measures the difference). *)

type t

val create :
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Commit_pipeline.mode ->
  ?rid_base:int ->
  ?rid_stride:int ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_ckpt_bytes:int ->
  mgr:Txn.mgr ->
  name:string ->
  unit ->
  t
(** The knobs are {!Record_core.Make.create}'s. The WAL and the lock
    site share a private fault plane that nothing arms. There is no bloom
    filter: the record table is its own O(1) membership probe. *)

val ops : t -> Store.t

val restore : t -> (Rid.t * bytes) list -> unit
(** Recovery-only; see {!Record_core.Make.restore}. *)
