(** The transactional record core shared by every store layout.

    Ode runs one object manager over two storage managers — EOS on disk,
    Dali in memory (MM-Ode, §5.6). This module is the part the two have
    in common below {!Store.t}: everything transactional is decided here
    once, and a store backend supplies only its physical layout
    ({!PHYS}). {!Mem_store} instantiates it over a hash table,
    {!Disk_store} over slotted pages, a buffer pool and a bloom filter.

    The core owns the usable/writable checks; strict 2PL record locking
    (through the [Lock_acquire] fault site); the logical WAL and the
    per-transaction undo table; fresh-rid striding; snapshot and
    read-committed reads over the {!Mvcc} version chains; version
    install, the dirty-rid set and rollback at commit/abort; the sorted
    scan cache; the full-anchor / incremental-delta checkpoint chain;
    version pruning; the common counters; commit/abort participant
    registration; and building the {!Store.t} record. *)

(** A physical record layout: where bytes for a rid live, with no
    locking, logging or versioning. Every operation is called by the core
    only when it is valid (e.g. [update]/[delete] only for a live rid,
    [insert] only for a rid with no live entry). *)
module type PHYS = sig
  type t

  val insert : t -> undo:bool -> Rid.t -> bytes -> unit
  (** Place a record under a rid with no live entry: a freshly minted
      rid, or ([~undo:true]) a rid whose delete is being rolled back. *)

  val read : t -> Rid.t -> bytes option

  val update : t -> Rid.t -> bytes -> unit
  (** Replace a live record's bytes; the layout may move it, but the rid
      keeps its identity. *)

  val delete : t -> Rid.t -> unit
  val iter : t -> (Rid.t -> unit) -> unit
  (** Every live rid, in any order. *)

  val count : t -> int
  val mem : t -> Rid.t -> bool
  (** Live entry (committed or not), without reading record bytes. *)

  val definitely_absent : t -> Rid.t -> bool
  (** Lock-free probe: [true] only if the rid was never placed, so a
      regular read may answer [None] without a lock. Must have no false
      negatives even for rids an uncommitted transaction deleted. *)

  val false_positive : t -> unit
  (** [definitely_absent] said "maybe" but the rid had no live entry. *)

  val load : t -> (Rid.t * bytes) list -> unit
  (** Place recovered records into the empty layout. *)

  val flush : t -> unit
  (** Write back buffered state before a checkpoint is logged. *)

  val on_anchor : t -> dirty:Rid.t list -> unit
  (** A full anchor became durable; [dirty] are the rids committed since
      the previous checkpoint. *)

  val crash : t -> unit
  (** Drop everything volatile. *)

  val counters : t -> (string * int) list
  (** The layout's own counters, appended to the core's. *)
end

module Make (P : PHYS) : sig
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
    faults:Faults.t ->
    mgr:Txn.mgr ->
    name:string ->
    P.t ->
    t
  (** Wrap an empty layout and register the store as a commit/abort
      participant with [mgr]. [faults] is the plane behind the WAL and the
      record-lock site.

      [flush_spin] simulates log-force latency and [flush_sleep] its
      blocking variant (see {!Wal.create}); [durability] selects the
      commit pipeline's mode ({!Commit_pipeline.mode}, default
      [Immediate] — flush per commit). [rid_base]/[rid_stride] (defaults
      0/1) restrict fresh rids to the residue class
      [rid_base (mod rid_stride)] — how {!Ode_parallel} gives shard [i]
      of [K] ownership of every oid ≡ i (mod K) without coordination.

      Capacity knobs: [wal_segment_bytes] (default 0 = never) seals WAL
      segments at that size so full checkpoints can retire them
      ({!Wal.retire_below}); [ckpt_full_every] (default 1 = always full)
      makes every Nth checkpoint a full anchor with incremental
      [Ckpt_delta] manifests between; [auto_ckpt_bytes] (default 0 =
      off) arms {!Commit_pipeline.auto_checkpoint_due} at that much WAL
      growth.

      Raises [Store_error] unless [0 <= rid_base < rid_stride] and
      [ckpt_full_every >= 1]. *)

  val ops : t -> Store.t

  val restore : t -> (Rid.t * bytes) list -> unit
  (** Recovery: install [entries] (the committed state, sorted by rid)
      into the fresh store, bypassing transactions, locking and logging,
      and log them verbatim as the store's first full anchor — no page
      re-read and no encode pass. Each record gets a baseline version at
      ts 0, and fresh rids continue above the largest restored one in
      the store's residue class. Raises [Store_error] if the store holds
      records or WAL history. *)
end
