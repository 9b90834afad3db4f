(* Fixed workload parameters. The flush policy, shard count, pool size,
   dataset sizes and offered open-loop rates are part of the benchmark
   definition: change them only in a change of their own, and re-measure
   the baseline after it. *)

(* Shared by every workload: WAL segment rotation and the automatic
   checkpoint policy are on, so the heap levels off. *)
let wal_segment_bytes = 1 lsl 20
let ckpt_full_every = 4

(* Setup (schema definition plus provisioning) is repeated this many times
   per run and the median is reported; recovery likewise. *)
let setup_reps = 5
let recovery_reps = 9

(* Before the crash the fleet is checkpointed, then takes this many more
   jobs of its workload, so every run recovers the same kind of log: a
   fresh anchor and a fixed tail. *)
let crash_tail_jobs = 2000

(* Untimed warm-up before the timed phases of the wire workloads, s. *)
let warmup_s = 1.0

(* Requests per connection kept in flight in the closed-loop phase. *)
let window = 32

module Wire_cards = struct
  let shards = 2
  let cards = 20_000
  let zipf_theta = 0.99
  let auto_checkpoint_bytes = 4 lsl 20

  (* Offered rate of the open-loop phase, jobs (here: requests) per
     second. *)
  let open_rate = 10_000.0

  (* Request mix, percent: Get_field, Snapshot_get, Invoke Buy, Invoke
     PayBill. *)
  let pct_get = 60
  let pct_snap = 15
  let pct_buy = 14

  (* Amount ranges (inclusive, whole units). *)
  let buy_amount = (1, 200)
  let pay_amount = (1, 220)
end

module Trigger_embedded = struct
  let cards = 10_000
  let zipf_theta = 0.99
  let auto_checkpoint_bytes = 4 lsl 20

  (* Transaction mix, percent: Buy, PayBill, BigBuy, read. *)
  let pct_buy = 40
  let pct_pay = 30
  let pct_big = 18
  let buy_amount = (1, 200)
  let pay_amount = (1, 227)
  let big_amount = (100, 900)

  (* The traced run replays this many transactions of the seeded stream,
     so its counts repeat exactly for a seed. *)
  let trace_ops = 60_000
end

module Disk_ledger = struct
  let shards = 2
  let pool_frames = 52

  (* Simulated log-force cost: busy-loop iterations per force. A spin, not
     a sleep: on a shared VM, timer wakeups after a sleep arrive late by a
     varying amount, and the latency figures swung with them. *)
  let flush_spin = 20_000
  let auto_checkpoint_bytes = 2 lsl 20

  (* Ledger cards take the interactive transactions; customers take the
     reads; deleted cards take the fast posts. *)
  let ledger_cards = 8_000
  let customers = 40_000
  let deleted_cards = 2_000
  let zipf_theta = 0.99

  (* Interactive-transaction streams per connection; each owns a disjoint
     slice of the ledger cards, so open transactions never contend. *)
  let streams = 32

  (* Job mix, percent: interactive transaction (4 requests), Get_field,
     fast post to a deleted card. *)
  let pct_txn = 35
  let pct_read = 50
  let amount = (1, 100)

  (* Offered open-loop rate, jobs per second (a transaction is one job of
     four requests). *)
  let open_rate = 4_000.0
end

module Disk_embedded = struct
  (* The data set, job mix and log-force cost of disk_ledger, on one
     store: its buffer pool holds about a tenth of the store's pages. *)
  let pool_frames = 104
  let auto_checkpoint_bytes = 2 lsl 20

  (* The traced run replays this many jobs of the seeded stream. *)
  let trace_ops = 30_000
end
