module Binc = Ode_util.Binc

type loc = { page : int; slot : int }

let fail fmt = Format.kasprintf (fun msg -> raise (Store.Store_error msg)) fmt

let encode_record rid payload =
  let w = Binc.writer () in
  Binc.write_uvarint w (Rid.to_int rid);
  Binc.write_bytes w payload;
  Binc.contents w

let decode_record bytes =
  let r = Binc.reader bytes in
  let rid = Rid.of_int (Binc.read_uvarint r) in
  let payload = Binc.read_bytes r in
  (rid, payload)

(* The layout: records on slotted pages behind the buffer pool, a
   directory from rid to (page, slot), and a bloom filter in front of the
   directory. No locking or logging — that is the core's. *)
module Phys = struct
  type t = {
    pager : Pager.t;
    pool : Buffer_pool.t;
    dir : loc Rid.Tbl.t;
    mutable active_page : int option;  (* current fill target *)
    roomy_pages : (int, unit) Hashtbl.t;  (* pages with reclaimed space *)
    mutable bloom : Bloom.t;  (* membership filter in front of [dir] *)
    mutable relocations : int;
    mutable bloom_negatives : int;  (* lookups answered "absent" without lock or page *)
    mutable bloom_fp : int;  (* bloom said maybe, directory said no *)
    deleted : unit Rid.Tbl.t;  (* rids deleted since the last full walk, still hashed in *)
    mutable bloom_incr_rebuilds : int;  (* full anchors served by an O(dirty) patch *)
  }

  let place_on_page t page_id data =
    Buffer_pool.with_page t.pool page_id ~dirty:true (fun page -> Page.insert page data)

  let try_pages t data =
    let try_page page_id =
      match place_on_page t page_id data with
      | Some slot -> Some { page = page_id; slot }
      | None ->
          Hashtbl.remove t.roomy_pages page_id;
          None
    in
    let from_active =
      match t.active_page with Some page_id -> try_page page_id | None -> None
    in
    match from_active with
    | Some loc -> Some loc
    | None ->
        let roomy = Hashtbl.fold (fun page_id () acc -> page_id :: acc) t.roomy_pages [] in
        let roomy = List.sort compare roomy in
        List.fold_left
          (fun found page_id -> match found with Some _ -> found | None -> try_page page_id)
          None roomy

  let check_fits t rid data =
    let page_capacity = Pager.page_size t.pager - 64 in
    if Bytes.length data > page_capacity then
      fail "record %a too large (%d bytes > page capacity %d)" Rid.pp rid (Bytes.length data)
        page_capacity

  (* Put encoded bytes on the active page, else a page with reclaimed
     space, else a fresh page, and point the directory at them. *)
  let place t rid data =
    let loc =
      match try_pages t data with
      | Some loc -> loc
      | None ->
          let page_id = Pager.alloc t.pager in
          t.active_page <- Some page_id;
          (match place_on_page t page_id data with
          | Some slot -> { page = page_id; slot }
          | None -> fail "record does not fit on a fresh page")
    in
    Rid.Tbl.replace t.dir rid loc

  let unplace t loc =
    Buffer_pool.with_page t.pool loc.page ~dirty:true (fun page -> Page.delete page loc.slot);
    Hashtbl.replace t.roomy_pages loc.page ()

  (* Resize-and-rekey from the live directory and the rids deleted since
     the last full walk. Runs whenever inserts overrun the sized capacity
     by 2x (keeping the false-positive rate near its target as the store
     grows), and at full anchors that cannot be patched. Only an anchor,
     which runs at quiescence, may drop the deleted rids: before that one
     of them may belong to an in-flight delete, and a reader that the
     filter told "absent" would not wait for the deleter's X lock. Same
     seed — rebuilds are deterministic. *)
  let rebuild_bloom ?(expected = 0) t =
    let keys = Rid.Tbl.length t.dir + Rid.Tbl.length t.deleted in
    let expected = max expected (max 1024 (2 * keys)) in
    let bloom =
      Bloom.create ~seed:(Bloom.seed t.bloom) ~expected ~fp_rate:(Bloom.fp_rate t.bloom)
    in
    let add rid _ = Bloom.add bloom (Rid.to_int rid) in
    Rid.Tbl.iter add t.dir;
    Rid.Tbl.iter add t.deleted;
    t.bloom <- bloom

  (* A fresh rid is hashed in. A rolled-back delete re-places a rid that
     is still hashed: its key is live again, not stale. *)
  let insert t ~undo rid payload =
    let data = encode_record rid payload in
    check_fits t rid data;
    place t rid data;
    if undo then Rid.Tbl.remove t.deleted rid
    else begin
      Bloom.add t.bloom (Rid.to_int rid);
      if Bloom.count t.bloom > 2 * Bloom.expected t.bloom then rebuild_bloom t
    end

  let read t rid =
    match Rid.Tbl.find_opt t.dir rid with
    | None -> None
    | Some loc ->
        Buffer_pool.with_page t.pool loc.page ~dirty:false (fun page ->
            match Page.read page loc.slot with
            | None -> fail "directory points at dead slot for %a" Rid.pp rid
            | Some data ->
                let stored_rid, payload = decode_record data in
                if not (Rid.equal stored_rid rid) then
                  fail "directory/page disagree on rid (%a vs %a)" Rid.pp rid Rid.pp stored_rid;
                Some payload)

  (* A record that outgrows its slot moves to another page; its rid, and
     so the directory key and the bloom filter, stay as they are. *)
  let update t rid payload =
    match Rid.Tbl.find_opt t.dir rid with
    | None -> fail "update of unknown record %a" Rid.pp rid
    | Some loc ->
        let data = encode_record rid payload in
        let in_place =
          Buffer_pool.with_page t.pool loc.page ~dirty:true (fun page ->
              Page.update page loc.slot data)
        in
        if not in_place then begin
          check_fits t rid data;
          t.relocations <- t.relocations + 1;
          unplace t loc;
          place t rid data
        end

  let delete t rid =
    match Rid.Tbl.find_opt t.dir rid with
    | None -> ()
    | Some loc ->
        unplace t loc;
        Rid.Tbl.remove t.dir rid;
        Rid.Tbl.replace t.deleted rid ()

  let iter t f = Rid.Tbl.iter (fun rid _ -> f rid) t.dir
  let count t = Rid.Tbl.length t.dir
  let mem t rid = Rid.Tbl.mem t.dir rid

  let definitely_absent t rid =
    let absent = not (Bloom.maybe_mem t.bloom (Rid.to_int rid)) in
    if absent then t.bloom_negatives <- t.bloom_negatives + 1;
    absent

  let false_positive t = t.bloom_fp <- t.bloom_fp + 1

  (* Size the bloom for the load up front so neither the per-record adds
     nor the recovery anchor need a rebuild pass. *)
  let load t entries =
    rebuild_bloom t ~expected:(2 * List.length entries);
    List.iter (fun (rid, payload) -> insert t ~undo:false rid payload) entries

  (* Dirty pages go back to the device before the state is logged. *)
  let flush t = Buffer_pool.flush_all t.pool

  (* Full-anchor bloom refresh: when the checkpoint's committed delta is
     small relative to the live set and the filter is neither over
     capacity nor carrying many dead keys, patch the existing filter from
     the dirty rids instead of re-hashing the whole directory — O(dirty),
     not O(live). Deleted rids stay hashed in (false positives only,
     counted in [deleted]), so the patch path keeps its own budget:
     once stale keys or insert overrun would erode the false-positive
     target, the next anchor falls back to the full walk and flushes
     them out. *)
  let on_anchor t ~dirty =
    let live = Rid.Tbl.length t.dir in
    let saturated = Bloom.count t.bloom > 2 * Bloom.expected t.bloom in
    let too_stale = Rid.Tbl.length t.deleted * 8 > max 1024 live in
    let small = List.length dirty * 8 <= live in
    if small && (not saturated) && not too_stale then begin
      List.iter
        (fun rid ->
          let key = Rid.to_int rid in
          if Rid.Tbl.mem t.dir rid && not (Bloom.maybe_mem t.bloom key) then
            Bloom.add t.bloom key)
        dirty;
      t.bloom_incr_rebuilds <- t.bloom_incr_rebuilds + 1
    end
    else begin
      Rid.Tbl.reset t.deleted;
      rebuild_bloom t
    end

  let crash t = Buffer_pool.drop_all t.pool

  let counters t =
    let pager = Pager.stats t.pager in
    let pool = Buffer_pool.stats t.pool in
    [
      ("relocations", t.relocations);
      ("page_reads", pager.Pager.reads);
      ("page_writes", pager.Pager.writes);
      ("pages", Pager.page_count t.pager);
      ("pool_hits", pool.Buffer_pool.hits);
      ("pool_misses", pool.Buffer_pool.misses);
      ("pool_evictions", pool.Buffer_pool.evictions);
      ("pool_writebacks", pool.Buffer_pool.writebacks);
      ("bloom_negatives", t.bloom_negatives);
      ("bloom_fp", t.bloom_fp);
      ("bloom_bits", Bloom.bit_count t.bloom);
      ("bloom_keys", Bloom.count t.bloom);
      ("bloom_stale_keys", Rid.Tbl.length t.deleted);
      ("bloom_incremental_rebuilds", t.bloom_incr_rebuilds);
    ]
end

include Record_core.Make (Phys)

let create ?(page_size = 4096) ?(pool_capacity = 64) ?io_spin ?flush_spin ?flush_sleep
    ?durability ?faults ?rid_base ?rid_stride ?wal_segment_bytes ?ckpt_full_every
    ?auto_ckpt_bytes ?(bloom_seed = 0x0DE5EED) ?(bloom_fp_rate = 0.01) ~mgr ~name () =
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let pager = Pager.create ?io_spin ~faults ~page_size () in
  create ?flush_spin ?flush_sleep ?durability ?rid_base ?rid_stride ?wal_segment_bytes
    ?ckpt_full_every ?auto_ckpt_bytes ~faults ~mgr ~name
    {
      Phys.pager;
      pool = Buffer_pool.create ~faults pager ~capacity:pool_capacity;
      dir = Rid.Tbl.create 256;
      active_page = None;
      roomy_pages = Hashtbl.create 16;
      bloom = Bloom.create ~seed:bloom_seed ~expected:1024 ~fp_rate:bloom_fp_rate;
      relocations = 0;
      bloom_negatives = 0;
      bloom_fp = 0;
      deleted = Rid.Tbl.create 64;
      bloom_incr_rebuilds = 0;
    }
