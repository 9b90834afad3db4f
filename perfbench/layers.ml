(* The per-layer metrics of a traced run, in the order they are printed,
   with their units. Every workload reports all of them; a layer the
   workload bypasses reads 0 and is listed as bypassed. *)

let spec =
  [
    ("net.encode_ns", "ns");
    ("net.decode_ns", "ns");
    ("net.ping_rtt_us", "us");
    ("net.frames_per_flush", "count");
    ("net.residual_us", "us");
    ("parallel.dispatch_wait_p50_us", "us");
    ("parallel.dispatch_wait_p99_us", "us");
    ("parallel.exec_self_us", "us");
    ("parallel.mailbox_hwm", "count");
    ("core.get_field_us", "us");
    ("core.snapshot_get_us", "us");
    ("core.invoke_us", "us");
    ("core.post_event_us", "us");
    ("core.commit_us", "us");
    ("core.define_class_ms", "ms");
    ("trigger.posts_per_write", "count");
    ("trigger.skips_per_post", "count");
    ("trigger.fsm_moves_per_post", "count");
    ("trigger.mask_evals_per_post", "count");
    ("trigger.fires_per_write", "count");
    ("trigger.deny_ratio", "ratio");
    ("trigger.cache_hit_ratio", "ratio");
    ("trigger.state_writes_per_commit", "count");
    ("trigger.dense_ratio", "ratio");
    ("storage.pool_hit_ratio", "ratio");
    ("storage.page_reads_per_op", "count");
    ("storage.wal_flushes_per_commit", "count");
    ("storage.wal_bytes_per_commit", "B");
    ("storage.ckpt_per_kop", "count");
    ("storage.ckpt_delta_bytes", "B");
    ("storage.wal_footprint_bytes", "B");
    ("storage.lock_blocks", "count");
    ("storage.deadlocks", "count");
    ("storage.write_conflicts", "count");
    ("storage.bloom_negative_ratio", "ratio");
    ("storage.mvcc_max_chain_len", "count");
    ("storage.mvcc_prune_ratio", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_per_kop", "count");
    ("loadgen.lag_p99_us", "us");
    ("trace.overhead_pct", "%");
  ]

(* The metrics a session's counters give, as deltas over a phase of [ops]
   operations with [writes] write operations (denied ones included) of
   which [buys] were Buy invocations and [denials] were vetoed. *)
let of_counters ~before ~after ~ops ~writes ~buys ~denials =
  let d = Common.cdelta ~before ~after in
  let both k = d ("objects." ^ k) + d ("triggers." ^ k) in
  let at_end k = Common.cget after ("objects." ^ k) + Common.cget after ("triggers." ^ k) in
  let posts = d "rt.posts" in
  let commits = d "txn.committed" in
  let fires =
    d "rt.fires_immediate" + d "rt.fires_end" + d "rt.fires_dependent"
    + d "rt.fires_independent" + d "rt.fires_phoenix"
  in
  let pool = d "objects.pool_hits" + d "objects.pool_misses" in
  let ratio = Common.ratio in
  [
    ("trigger.posts_per_write", ratio posts writes);
    ("trigger.skips_per_post", ratio (d "rt.index_skips") posts);
    ("trigger.fsm_moves_per_post", ratio (d "rt.fsm_moves") posts);
    ("trigger.mask_evals_per_post", ratio (d "rt.mask_evals") posts);
    ("trigger.fires_per_write", ratio fires writes);
    ("trigger.deny_ratio", ratio denials buys);
    ("trigger.cache_hit_ratio", ratio (d "rt.cache_hits") (d "rt.cache_hits" + d "rt.cache_misses"));
    ("trigger.state_writes_per_commit", ratio (d "rt.state_writes") commits);
    ("trigger.dense_ratio", ratio (d "rt.dense_dispatches") (d "rt.fsm_moves"));
    ("storage.pool_hit_ratio", ratio (d "objects.pool_hits") pool);
    ("storage.page_reads_per_op", ratio (d "objects.page_reads") ops);
    ("storage.wal_flushes_per_commit", ratio (both "wal_flushes") commits);
    ("storage.wal_bytes_per_commit", ratio (both "wal_bytes") commits);
    ("storage.ckpt_per_kop", 1000.0 *. ratio (both "ckpt_fulls" + both "ckpt_deltas") ops);
    ("storage.ckpt_delta_bytes", float_of_int (both "ckpt_incremental_bytes"));
    ("storage.wal_footprint_bytes", float_of_int (at_end "wal_footprint"));
    ("storage.lock_blocks", float_of_int (d "locks.blocks"));
    ("storage.deadlocks", float_of_int (d "locks.deadlocks"));
    ("storage.write_conflicts", float_of_int (d "rt.write_conflicts"));
    ("storage.mvcc_max_chain_len", float_of_int (at_end "mvcc.max_chain_len"));
    ( "storage.mvcc_prune_ratio",
      ratio (both "mvcc.versions_pruned") (both "mvcc.versions_installed") );
  ]

let of_gc ~(before : Common.gc_mark) ~(after : Common.gc_mark) ~ops =
  [
    ("gc.minor_words_per_op", (after.Common.g_minor -. before.Common.g_minor) /. float_of_int (max 1 ops));
    ("gc.major_per_kop", 1000.0 *. Common.ratio (after.Common.g_major - before.Common.g_major) ops);
  ]

(* Counts per operation for the traced-run table: every counter that moved
   during the phase, divided by [ops]. *)
let print_counts_per_op ~before ~after ~ops =
  Printf.printf "counter deltas over the traced phase (%d ops): total, per op\n" ops;
  List.iter
    (fun (k, v) ->
      let dv = v - Common.cget before k in
      if dv <> 0 then Printf.printf "  %-40s %12d %12.4f\n" k dv (Common.ratio dv ops))
    after
