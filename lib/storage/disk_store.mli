(** EOS-like disk-based record store: {!Record_core.Make} over slotted
    pages behind an LRU buffer pool, with a bloom filter in front of the
    rid directory. The core supplies the logical WAL, per-transaction
    undo and strict 2PL record locking.

    A record is addressed by a logical {!Rid.t}; the store keeps a directory
    from rid to (page, slot) so an update that no longer fits in place can
    relocate the record without changing its identity (the paper's persistent
    pointers must stay valid). Durability is through the WAL: commit forces
    the log; a crash discards the buffer pool and pages, and
    {!Recovery.recover_disk} rebuilds the store from the last checkpoint plus
    committed log suffix. *)

type t

val create :
  ?page_size:int ->
  ?pool_capacity:int ->
  ?io_spin:int ->
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Commit_pipeline.mode ->
  ?faults:Faults.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_ckpt_bytes:int ->
  ?bloom_seed:int ->
  ?bloom_fp_rate:float ->
  mgr:Txn.mgr ->
  name:string ->
  unit ->
  t
(** Creates an empty store and registers it as a commit/abort participant
    with [mgr]. [page_size] defaults to 4096, [pool_capacity] (frames) to
    64; [io_spin] simulates per-page-I/O device latency (see
    {!Pager.create}). [faults] is the fault-injection plane shared by the
    store's pager, buffer pool, WAL and lock points; pass the same plane
    to several stores to give them one global I/O-point numbering.
    [bloom_seed]/[bloom_fp_rate] (defaults [0x0DE5EED]/0.01) configure
    the rid membership filter consulted before directory and buffer-pool
    lookups. The other knobs are {!Record_core.Make.create}'s. *)

val ops : t -> Store.t
(** The uniform interface used by everything above the storage layer. *)

val restore : t -> (Rid.t * bytes) list -> unit
(** Recovery-only; see {!Record_core.Make.restore}. The bloom filter is
    sized for the restored records up front, so no rebuild pass follows. *)
