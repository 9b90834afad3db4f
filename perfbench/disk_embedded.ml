(* disk_embedded — the Disk store in the paper's embedded mode: one Session
   on the caller's thread, no server and no shards. The data set, job mix
   and log-force cost are disk_ledger's: the buffer pool holds about a
   tenth of the pages, every commit forces the log at a fixed simulated
   cost, and WAL rotation and auto-checkpoint are on. Each job is one
   transaction: a ledger transaction (Buy on one card, PayBill on another,
   one commit), a Get_field read of a customer, or a fast post to a deleted
   card that the bloom filter answers. A closed loop with one caller. After
   the timed loop the database crashes and recovers, and every committed
   transaction must be there. A stall (a checkpoint, a collection) holds up
   only the transaction it hits, so the latency figures have no wire
   tail. *)

open Common
module Session = Ode.Session
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module D = Config.Disk_ledger
module C = Config.Disk_embedded

let create_env () =
  Session.create ~store:`Disk ~pool_capacity:C.pool_frames ~flush_spin:D.flush_spin
    ~durability:Ode_storage.Commit_pipeline.Immediate ~wal_segment_bytes:Config.wal_segment_bytes
    ~ckpt_full_every:Config.ckpt_full_every ~auto_checkpoint_bytes:C.auto_checkpoint_bytes ()

type state = {
  env : Session.t;
  cards : Oid.t array;
  model : Schema.card array;
  customers : Oid.t array;
  deleted : Oid.t array;
  merchant : Value.t;
  big_buy : int;  (** the BigBuy event id the fast posts carry *)
}

(* [f txn j] for j in [0, n), 500 to a transaction. *)
let batched env n f =
  let batch = 500 in
  let i = ref 0 in
  while !i < n do
    Session.with_txn env (fun txn ->
        for j = !i to min n (!i + batch) - 1 do
          f txn j
        done);
    i := !i + batch
  done

(* Schema definition plus provisioning. Ledger cards start at a zero
   balance under a limit no Buy reaches, so no transaction is vetoed;
   deleted cards are created and then deleted. *)
let setup () =
  let env = create_env () in
  Schema.define env;
  let merchant = Session.with_txn env (fun txn -> Ode.Credit_card.new_merchant env txn ~name:"bench") in
  let objects n make =
    let oids = Array.make n (Oid.of_int 0) in
    batched env n (fun txn j -> oids.(j) <- make txn j);
    oids
  in
  let card txn _ =
    let oid =
      Session.pnew env txn ~cls:"CredCard"
        ~init:[ ("credLim", Value.Float 1e12); ("currBal", Value.Float 0.0) ]
        ()
    in
    ignore (Session.activate env txn oid ~trigger:"DenyCredit" ~args:[]);
    oid
  in
  let cards = objects D.ledger_cards card in
  let customers =
    objects D.customers (fun txn i ->
        Session.pnew env txn ~cls:"Customer" ~init:[ ("name", Value.Str (Disk_ledger.customer_name i)) ] ())
  in
  let deleted = objects D.deleted_cards card in
  batched env D.deleted_cards (fun txn j -> Session.pdelete env txn deleted.(j));
  let big_buy = Session.with_txn env (fun txn -> Session.user_event_id env txn cards.(0) "BigBuy") in
  {
    env;
    cards;
    model = Array.init D.ledger_cards (fun _ -> Schema.new_card ~bal:0.0);
    customers;
    deleted;
    merchant = Value.Oid merchant;
    big_buy;
  }

(* ---------------- the job stream ---------------- *)

type op = Txn of { a : int; b : int; buy : float; pay : float } | Read of int | Post of int

let gen zipf rs =
  let r = Random.State.int rs 100 in
  let lo, hi = D.amount in
  if r < D.pct_txn then begin
    let a = Random.State.int rs D.ledger_cards in
    let b = (a + 1 + Random.State.int rs (D.ledger_cards - 1)) mod D.ledger_cards in
    Txn { a; b; buy = amount rs lo hi; pay = amount rs lo hi }
  end
  else if r < D.pct_txn + D.pct_read then Read (Zipf.draw zipf rs)
  else Post (Random.State.int rs D.deleted_cards)

(* Spans of one traced replay, one sample set per Session call. *)
type spans = { s_invoke : Samples.t; s_post : Samples.t; s_get : Samples.t; s_commit : Samples.t }

let new_spans () =
  { s_invoke = Samples.create (); s_post = Samples.create (); s_get = Samples.create (); s_commit = Samples.create () }

type tally = {
  mutable ops : int;
  mutable txns : int;
  mutable committed : int;
  mutable posts : int;
  mutable failed : int;
  mutable mismatched : int;  (** reads that returned another customer's name *)
}

let new_tally () = { ops = 0; txns = 0; committed = 0; posts = 0; failed = 0; mismatched = 0 }

(* Run one job; a committed ledger transaction folds into the model. *)
let exec st tally spans op =
  let env = st.env in
  let wrap s f = match spans with Some sp -> span (s sp) f | None -> f () in
  let run body = Embedded.run_txn env ~commit:(wrap (fun sp -> sp.s_commit)) body in
  tally.ops <- tally.ops + 1;
  match op with
  | Txn { a; b; buy; pay } ->
      tally.txns <- tally.txns + 1;
      let invoke txn i meth args =
        ignore (wrap (fun sp -> sp.s_invoke) (fun () -> Session.invoke env txn st.cards.(i) meth args))
      in
      if
        run (fun txn ->
            invoke txn a "Buy" [ st.merchant; Value.Float buy ];
            invoke txn b "PayBill" [ Value.Float pay ])
      then begin
        let ca = st.model.(a) and cb = st.model.(b) in
        ca.Schema.bal <- ca.Schema.bal +. buy;
        ca.Schema.purchases <- ca.Schema.purchases + 1;
        cb.Schema.bal <- cb.Schema.bal -. pay;
        tally.committed <- tally.committed + 1
      end
      else tally.failed <- tally.failed + 1
  | Read i ->
      let expected = Disk_ledger.customer_name i in
      if
        not
          (run (fun txn ->
               match wrap (fun sp -> sp.s_get) (fun () -> Session.get_field env txn st.customers.(i) "name") with
               | Value.Str s when s = expected -> ()
               | _ -> tally.mismatched <- tally.mismatched + 1))
      then tally.failed <- tally.failed + 1
  | Post i ->
      tally.posts <- tally.posts + 1;
      if
        not
          (run (fun txn ->
               wrap (fun sp -> sp.s_post) (fun () ->
                   Session.post_event_fast env txn st.deleted.(i) ~event:st.big_buy)))
      then tally.failed <- tally.failed + 1

let exec_safe st tally spans op =
  try exec st tally spans op
  with e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "disk_embedded: %s\n%!" (Printexc.to_string e)

(* ---------------- checks ---------------- *)

(* Every ledger card's balance and purchase count, read in one snapshot. *)
let observe env cards =
  Session.with_snapshot env (fun txn ->
      Array.map
        (fun oid ->
          let f name = Session.get_field env txn oid name in
          {
            Schema.o_bal = Value.to_float (f "currBal");
            o_lim = 0.0;
            o_purchases = Value.to_int (f "purchases");
            o_streaks = 0;
            o_bigs = 0;
            o_settles = 0;
          })
        cards)

let deleted_absent env deleted =
  Session.with_txn env (fun txn -> Array.for_all (fun oid -> not (Session.exists env txn oid)) deleted)

let recover img =
  Session.recover ~flush_spin:D.flush_spin ~durability:Ode_storage.Commit_pipeline.Immediate
    ~wal_segment_bytes:Config.wal_segment_bytes ~ckpt_full_every:Config.ckpt_full_every
    ~auto_checkpoint_bytes:C.auto_checkpoint_bytes img

(* ---------------- runs ---------------- *)

let provenance ~seed =
  print_info "provenance"
    [
      ("workload", json_string "disk_embedded");
      ("nproc", string_of_int (nproc ()));
      ("cpus_pinned", string_of_int (cpus_pinned ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("git_rev", json_string (git_rev ()));
      ("seed", string_of_int seed);
      ("store", json_string "disk");
      ("durability", json_string "immediate");
      ("flush_policy", json_string (Printf.sprintf "immediate, %d-iteration log-force spin" D.flush_spin));
      ("shards", "0");
      ("pool_frames", string_of_int C.pool_frames);
      ("client_threads", "1");
      ("ledger_cards", string_of_int D.ledger_cards);
      ("customers", string_of_int D.customers);
      ("deleted_cards", string_of_int D.deleted_cards);
      ("wal_segment_bytes", string_of_int Config.wal_segment_bytes);
      ("auto_checkpoint_bytes", string_of_int C.auto_checkpoint_bytes);
      ("offered_rate", json_string "closed loop, one transaction at a time");
    ]

let pool_hit_ratio d = ratio (d "objects.pool_hits") (d "objects.pool_hits" + d "objects.pool_misses")

(* Fast posts the store answered "absent" (the bloom filter, or the
   directory behind a false positive). *)
let dropped d = d "objects.bloom_negatives" + d "objects.bloom_fp"

let run_untraced ~seed ~seconds =
  provenance ~seed;
  let setup_s, st = timed_reps Config.setup_reps ~drop:ignore setup in
  let zipf = Zipf.create ~n:D.customers ~theta:D.zipf_theta (rng ~seed ~lane:2) in
  let rs = rng ~seed ~lane:3 in
  let tally = new_tally () in
  let before = Session.counters st.env in
  let g0 = gc_mark () in
  let half = ref None and half_heap = ref 0.0 in
  let win =
    Embedded.closed_loop ~seconds
      ~at_half:(fun () ->
        half := Some (Session.counters st.env);
        half_heap := heap_mb ())
      (fun () ->
        let op = gen zipf rs in
        exec_safe st tally None op;
        match op with Read _ -> Some 0 | Txn _ -> Some 1 | Post _ -> None)
  in
  let after = Session.counters st.env in
  let g1 = gc_mark () in
  let end_heap = heap_mb () and heap = heap_peak_mb () in
  let d = cdelta ~before ~after in
  (* The timed loop's figures, before the crash tail adds to the tally. *)
  let committed = tally.committed and posts = tally.posts in
  let wal_bytes = d "objects.wal_bytes" + d "triggers.wal_bytes" in
  let live = Schema.checks ~matches:Schema.matches_fold ~label:"live" st.model (observe st.env st.cards) in
  Embedded.checkpoint_anchor st.env;
  for _ = 1 to Config.crash_tail_jobs do
    exec_safe st tally None (gen zipf rs)
  done;
  let recovery_s, env' = Embedded.recover_timed st.env recover in
  let recovered = Schema.checks ~matches:Schema.matches_fold ~label:"recovered" st.model (observe env' st.cards) in
  let absent = deleted_absent env' st.deleted in
  let r = Windows.lat win 0 and w = Windows.lat win 1 in
  let mid = Option.value !half ~default:before in
  let first = cdelta ~before ~after:mid and second = cdelta ~before:mid ~after in
  print_info "stationarity"
    [
      ("first_half_ops_s", json_float (Windows.first_half_rate win));
      ("second_half_ops_s", json_float (Windows.second_half_rate win));
      ("first_half_pool_hit_ratio", json_float (pool_hit_ratio first));
      ("second_half_pool_hit_ratio", json_float (pool_hit_ratio second));
      ("first_half_checkpoints", string_of_int (first "objects.ckpt_fulls" + first "objects.ckpt_deltas"));
      ("second_half_checkpoints", string_of_int (second "objects.ckpt_fulls" + second "objects.ckpt_deltas"));
      ("segments_retired", string_of_int (d "objects.segments_retired" + d "triggers.segments_retired"));
      ("pages", string_of_int (cget after "objects.pages"));
      ("wal_flushes", string_of_int (d "objects.wal_flushes" + d "triggers.wal_flushes"));
      ("minor_gcs", string_of_int (g1.g_minor_gcs - g0.g_minor_gcs));
      ("major_gcs", string_of_int (g1.g_major - g0.g_major));
      ("half_heap_mb", json_float !half_heap);
      ("end_heap_mb", json_float end_heap);
    ];
  print_info "samples"
    [
      ("reads", string_of_int r.l_n);
      ("txns", string_of_int w.l_n);
      ("committed", string_of_int committed);
      ("fast_posts", string_of_int posts);
      ("read_p99", json_float r.l_p99);
      ("write_p99", json_float w.l_p99);
      ("fail_ratio", json_float (ratio tally.failed tally.ops));
    ];
  let checks =
    [
      check "transactions commit" (committed > 0) (string_of_int committed);
      check "reads return the customer's name" (tally.mismatched = 0)
        (Printf.sprintf "%d mismatches" tally.mismatched);
      check "fast posts to deleted cards dropped" (dropped d = posts)
        (Printf.sprintf "%d of %d dropped" (dropped d) posts);
    ]
    @ live @ recovered
    @ [ check "recovered: deleted cards absent" absent (string_of_int (Array.length st.deleted)) ]
  in
  let correct = print_checks checks in
  {
    correct;
    attempted = tally.ops;
    failed = tally.failed;
    e2e =
      [
        m "throughput_ops_s" "1/s" (Windows.rate win);
        m "read_p50_us" "us" r.l_p50;
        m "read_p90_us" "us" r.l_p90;
        m "write_p50_us" "us" w.l_p50;
        m "write_p90_us" "us" w.l_p90;
        m "setup_s" "s" setup_s;
        m "recovery_s" "s" recovery_s;
        m "heap_peak_mb" "MB" heap;
        m "wal_bytes_per_write" "B" (ratio wal_bytes (2 * committed));
      ];
    layers = [];
  }

(* A fixed-length replay of the seeded stream; [spans] switches tracing on.
   Returns its wall time and what the checks and metrics need. *)
let replay ~seed spans =
  let st = setup () in
  let zipf = Zipf.create ~n:D.customers ~theta:D.zipf_theta (rng ~seed ~lane:2) in
  let rs = rng ~seed ~lane:3 in
  let tally = new_tally () in
  let before = Session.counters st.env in
  let g0 = gc_mark () in
  let t0 = now_ns () in
  for _ = 1 to C.trace_ops do
    exec_safe st tally spans (gen zipf rs)
  done;
  let wall = secs_between t0 (now_ns ()) in
  let g1 = gc_mark () in
  (wall, (st, tally, before, Session.counters st.env, g0, g1))

let run_traced ~seed =
  provenance ~seed;
  let replays, overhead = Embedded.alternate ~new_spans (replay ~seed) in
  let (st, tally, before, after, g0, g1), sp = List.hd replays in
  let d = cdelta ~before ~after in
  let checks =
    [
      check "reads return the customer's name" (tally.mismatched = 0)
        (Printf.sprintf "%d mismatches" tally.mismatched);
      check "fast posts to deleted cards dropped" (dropped d = tally.posts)
        (Printf.sprintf "%d of %d dropped" (dropped d) tally.posts);
    ]
    @ Schema.checks ~matches:Schema.matches_fold ~label:"traced replay" st.model (observe st.env st.cards)
  in
  let correct = print_checks checks in
  Layers.print_counts_per_op ~before ~after ~ops:tally.ops;
  let layers =
    [
      ("core.get_field_us", p50 sp.s_get);
      ("core.invoke_us", p50 sp.s_invoke);
      ("core.post_event_us", p50 sp.s_post);
      ("core.commit_us", p50 sp.s_commit);
      ("core.define_class_ms", Schema.define_class_ms ());
      ("trace.overhead_pct", overhead);
      ("storage.bloom_negative_ratio", ratio (d "objects.bloom_negatives") tally.posts);
    ]
    @ Layers.of_counters ~before ~after ~ops:tally.ops ~writes:(2 * tally.txns) ~buys:tally.txns ~denials:0
    @ Layers.of_gc ~before:g0 ~after:g1 ~ops:tally.ops
  in
  { correct; attempted = tally.ops; failed = tally.failed; e2e = []; layers }

let bypassed = [ "net."; "parallel."; "loadgen."; "core.snapshot_get" ]
