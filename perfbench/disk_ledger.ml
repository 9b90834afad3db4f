(* disk_ledger — durable writes beside reads on the Disk store, over the
   wire, two shards. Each shard's buffer pool holds about a tenth of its
   pages; every commit forces the log at a fixed simulated cost; WAL
   rotation and auto-checkpoint are on. The mix: interactive transactions
   on ordered streams (Txn_begin, Buy on one ledger card, PayBill on
   another, Txn_commit), Get_field reads of customers, and fast posts to
   deleted cards that the bloom filter answers. Each stream owns a
   disjoint slice of the ledger cards, so open transactions never contend.
   After the timed phases the fleet crashes and recovers, and every
   acknowledged commit must be there. *)

open Common
module P = Ode_net.Proto
module Sharded = Ode_parallel.Sharded
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module C = Config.Disk_ledger

let schema ~shard:_ env = Schema.define env

let make_fleet () =
  Sharded.create ~store:`Disk ~pool_capacity:C.pool_frames ~flush_spin:C.flush_spin
    ~durability:Ode_storage.Commit_pipeline.Immediate ~wal_segment_bytes:Config.wal_segment_bytes
    ~ckpt_full_every:Config.ckpt_full_every ~auto_checkpoint_bytes:C.auto_checkpoint_bytes
    ~shards:C.shards ~mode:Sharded.Free ~schema ()

let recover img =
  Sharded.recover ~flush_spin:C.flush_spin ~durability:Ode_storage.Commit_pipeline.Immediate
    ~wal_segment_bytes:Config.wal_segment_bytes ~ckpt_full_every:Config.ckpt_full_every
    ~auto_checkpoint_bytes:C.auto_checkpoint_bytes ~mode:Sharded.Free ~schema img

let spec = { Fleet.make_fleet; recover }

type state = {
  conns : Wire.conn array;
  cards : Oid.t array;  (** ledger cards, card [i] on shard [i mod K] *)
  model : Schema.card array;
  customers : Oid.t array;
  deleted : Oid.t array;
  merchant : Value.t;
}

let customer_name i = Printf.sprintf "customer-%06d-%s" i (String.make 24 'x')

(* Ledger cards start at a zero balance under a limit no Buy reaches, so
   no transaction is vetoed; deleted cards are created and then
   deleted. *)
let setup conns =
  let shards = C.shards in
  let merchant = Fleet.new_obj conns ~cls:"Merchant" [ ("name", Value.Str "bench") ] in
  let card _ = ("CredCard", [ ("credLim", Value.Float 1e12); ("currBal", Value.Float 0.0) ]) in
  let cards = Fleet.create_objects conns ~shards ~count:C.ledger_cards card in
  Fleet.on_objects conns ~shards cards (fun oid -> [ P.Activate { obj = oid; trigger = "DenyCredit"; args = [] } ]);
  let customers =
    Fleet.create_objects conns ~shards ~count:C.customers (fun i ->
        ("Customer", [ ("name", Value.Str (customer_name i)) ]))
  in
  let deleted = Fleet.create_objects conns ~shards ~count:C.deleted_cards card in
  Fleet.on_objects conns ~shards deleted (fun oid -> [ P.Delete_obj { obj = oid } ]);
  {
    conns;
    cards;
    model = Array.init C.ledger_cards (fun _ -> Schema.new_card ~bal:0.0);
    customers;
    deleted;
    merchant = Value.Oid merchant;
  }

(* ---------------- streams and their card slices ---------------- *)

(* Stream slot [g] (of [C.streams] per connection) runs on shard
   [g mod K] and owns the ledger cards of that shard whose position
   within the shard is congruent to [g / K] modulo the slots per shard. *)
let slices st ~n_conns =
  let slots = n_conns * C.streams in
  let per_shard = slots / C.shards in
  Array.init slots (fun g ->
      let shard = g mod C.shards and k = g / C.shards in
      Array.of_list
        (List.filter
           (fun i -> i mod C.shards = shard && i / C.shards mod per_shard = k)
           (List.init (Array.length st.cards) Fun.id)))

(* ---------------- the request stream ---------------- *)

type op =
  | Txn of { a : int; b : int; buy : float; pay : float }  (** ledger card indices *)
  | Read of int  (** customer index *)
  | Post of int  (** deleted card index *)

type tally = {
  mutable attempted : int;  (** requests *)
  mutable failed : int;
  mutable txns : int;
  mutable committed : int;
  mutable posts : int;
  mutable posted_live : int;  (** fast posts the server applied: must stay 0 *)
}

let new_tally () = { attempted = 0; failed = 0; txns = 0; committed = 0; posts = 0; posted_live = 0 }

type gen = {
  zipf_customers : Zipf.t;
  slices : int array array;
  free : int Stack.t array;  (** free stream slots per connection *)
  rngs : Random.State.t array;  (** per connection *)
}

let new_gen st ~seed =
  let n_conns = Array.length st.conns in
  let free = Array.init n_conns (fun ci ->
      let s = Stack.create () in
      for k = C.streams - 1 downto 0 do
        Stack.push ((ci * C.streams) + k) s
      done;
      s)
  in
  {
    zipf_customers = Zipf.create ~n:C.customers ~theta:C.zipf_theta (rng ~seed ~lane:2);
    slices = slices st ~n_conns;
    free;
    rngs = Array.init n_conns (fun ci -> rng ~seed ~lane:(10 + ci));
  }

let draw g ci =
  let rs = g.rngs.(ci) in
  let r = Random.State.int rs 100 in
  let lo, hi = C.amount in
  if r < C.pct_txn && not (Stack.is_empty g.free.(ci)) then begin
    let slot = Stack.pop g.free.(ci) in
    let slice = g.slices.(slot) in
    let a = Random.State.int rs (Array.length slice) in
    let b = (a + 1 + Random.State.int rs (Array.length slice - 1)) mod Array.length slice in
    (Some slot, Txn { a = slice.(a); b = slice.(b); buy = amount rs lo hi; pay = amount rs lo hi })
  end
  else if r < C.pct_txn + C.pct_read then (None, Read (Zipf.draw g.zipf_customers rs))
  else (None, Post (Random.State.int rs C.deleted_cards))

(* Applies one interactive transaction's acknowledged effects exactly as
   the server did: inside the open transaction an invoke's effect waits
   for the commit; if the transaction dies, later frames on the stream run
   on their own. *)
type txn_track = { mutable open_ : bool; mutable staged : (unit -> unit) list }

let job st g tally ci =
  let slot, op = draw g ci in
  let fail () = tally.failed <- tally.failed + 1 in
  let frames, cls, on_reply =
    match op with
    | Read i ->
        tally.attempted <- tally.attempted + 1;
        ( [ (0, P.Get_field { obj = st.customers.(i); field = "name" }) ],
          0,
          fun _ -> function P.Done (P.P_value (Value.Str _)) -> () | _ -> fail () )
    | Post i ->
        tally.attempted <- tally.attempted + 1;
        tally.posts <- tally.posts + 1;
        ( [ (0, P.Post_event { obj = st.deleted.(i); event = "BigBuy"; args = []; fast = true }) ],
          2,
          fun _ -> function
            | P.Done (P.P_bool false) -> ()
            | P.Done (P.P_bool true) -> tally.posted_live <- tally.posted_live + 1
            | _ -> fail () )
    | Txn { a; b; buy; pay } ->
        tally.attempted <- tally.attempted + 4;
        tally.txns <- tally.txns + 1;
        let slot = Option.get slot in
        let stream = 1 + (slot mod C.streams) in
        let tr = { open_ = false; staged = [] } in
        let effect k () =
          let c = st.model.(k) in
          if k = a then begin
            c.Schema.bal <- c.Schema.bal +. buy;
            c.Schema.purchases <- c.Schema.purchases + 1
          end
          else c.Schema.bal <- c.Schema.bal -. pay
        in
        let on_invoke k = function
          | P.Done _ -> if tr.open_ then tr.staged <- effect k :: tr.staged else effect k ()
          | P.Fail _ ->
              tr.open_ <- false;
              tr.staged <- [];
              fail ()
        in
        ( [
            (stream, P.Txn_begin { key = Oid.to_int st.cards.(a) });
            (stream, P.Invoke { obj = st.cards.(a); meth = "Buy"; args = [ st.merchant; Value.Float buy ] });
            (stream, P.Invoke { obj = st.cards.(b); meth = "PayBill"; args = [ Value.Float pay ] });
            (stream, P.Txn_commit);
          ],
          1,
          fun idx reply ->
            match idx with
            | 0 -> ( match reply with P.Done _ -> tr.open_ <- true | P.Fail _ -> fail ())
            | 1 -> on_invoke a reply
            | 2 -> on_invoke b reply
            | _ ->
                (match reply with
                | P.Done _ when tr.open_ ->
                    List.iter (fun f -> f ()) (List.rev tr.staged);
                    tally.committed <- tally.committed + 1
                | _ -> fail ());
                (* The commit is the stream's last frame: free the slot. *)
                Stack.push slot g.free.(slot / C.streams) )
  in
  { Wire.frames; cls; on_reply }

(* ---------------- the timed phases ---------------- *)

(* The tally's transaction and post counts at one point of the run. *)
type mark = { k_txns : int; k_committed : int; k_posts : int }

let mark t = { k_txns = t.txns; k_committed = t.committed; k_posts = t.posts }

type timed = {
  closed : Wire.phase;
  opened : Wire.phase;
  tally : tally;
  p0 : Fleet.probe;
  p1 : Fleet.probe;
  m0 : mark;  (** when [p0] was taken: after the warm-up *)
  m1 : mark;  (** when [p1] was taken *)
  next : int -> Wire.job;  (** the job stream, to continue after the timed phases *)
}

(* Transactions, commits and fast posts of the timed phases, the ones
   counter deltas between [p0] and [p1] describe. *)
let timed_txns tm = tm.m1.k_txns - tm.m0.k_txns
let timed_committed tm = tm.m1.k_committed - tm.m0.k_committed
let timed_posts tm = tm.m1.k_posts - tm.m0.k_posts

let timed_phases ?tap srv ~seed ~seconds st =
  let g = new_gen st ~seed in
  let tally = new_tally () in
  let next ci = job st g tally ci in
  let d = Wire.driver ?tap st.conns in
  ignore (Wire.closed_loop d ~window:Config.window ~secs:Config.warmup_s ~next);
  let p0 = Fleet.probe srv in
  let m0 = mark tally in
  let closed = Wire.closed_loop d ~window:Config.window ~secs:(seconds /. 2.0) ~next in
  let opened = Wire.open_loop d ~rate:C.open_rate ~secs:(seconds /. 2.0) ~next in
  let p1 = Fleet.probe srv in
  { closed; opened; tally; p0; p1; m0; m1 = mark tally; next }

let counters_delta tm = cdelta ~before:tm.p0.Fleet.fleet_counters ~after:tm.p1.Fleet.fleet_counters

let provenance ~seed =
  print_info "provenance"
    [
      ("workload", json_string "disk_ledger");
      ("nproc", string_of_int (nproc ()));
      ("cpus_pinned", string_of_int (cpus_pinned ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("git_rev", json_string (git_rev ()));
      ("seed", string_of_int seed);
      ("store", json_string "disk");
      ("durability", json_string "immediate");
      ("flush_policy", json_string (Printf.sprintf "immediate, %d-iteration log-force spin" C.flush_spin));
      ("shards", string_of_int C.shards);
      ("mode", json_string "free");
      ("pool_frames_per_shard", string_of_int C.pool_frames);
      ("client_threads", "1");
      ("connections", string_of_int (Fleet.n_conns ()));
      ("streams_per_conn", string_of_int C.streams);
      ("closed_window_per_conn", string_of_int Config.window);
      ("open_rate_req_s", json_float C.open_rate);
      ("ledger_cards", string_of_int C.ledger_cards);
      ("customers", string_of_int C.customers);
      ("deleted_cards", string_of_int C.deleted_cards);
      ("wal_segment_bytes", string_of_int Config.wal_segment_bytes);
      ("auto_checkpoint_bytes", string_of_int C.auto_checkpoint_bytes);
    ]

let print_phase_info tm =
  let d = counters_delta tm in
  print_info "stationarity"
    [
      ("closed_first_half_req_s", json_float (Windows.first_half_rate tm.closed.Wire.win));
      ("closed_second_half_req_s", json_float (Windows.second_half_rate tm.closed.Wire.win));
      ("open_first_half_req_s", json_float (Windows.first_half_rate tm.opened.Wire.win));
      ("open_second_half_req_s", json_float (Windows.second_half_rate tm.opened.Wire.win));
      ("checkpoints", string_of_int (d "objects.ckpt_fulls" + d "objects.ckpt_deltas"));
      ("segments_retired", string_of_int (d "objects.segments_retired" + d "triggers.segments_retired"));
      ("pages", string_of_int (cget tm.p1.Fleet.fleet_counters "objects.pages"));
      ("pool_hit_ratio", json_float (ratio (d "objects.pool_hits") (d "objects.pool_hits" + d "objects.pool_misses")));
      ("wal_flushes", string_of_int (d "objects.wal_flushes" + d "triggers.wal_flushes"));
      ("server_minor_gcs", string_of_int (tm.p1.Fleet.gc.g_minor_gcs - tm.p0.Fleet.gc.g_minor_gcs));
    ];
  let r = Windows.lat tm.opened.Wire.win 0 and w = Windows.lat tm.opened.Wire.win 1 in
  print_info "samples"
    [
      ("open_reads", string_of_int r.l_n);
      ("open_txns", string_of_int w.l_n);
      ("txns", string_of_int (timed_txns tm));
      ("committed", string_of_int (timed_committed tm));
      ("fast_posts", string_of_int (timed_posts tm));
      ("fail_ratio", json_float (ratio tm.tally.failed tm.tally.attempted));
      ("lag_p99_us", json_float (pct (Samples.sorted tm.opened.Wire.lag) 0.99));
      ("read_p99", json_float r.l_p99);
      ("write_p99", json_float w.l_p99);
      ("read_p99_whole", json_float (Windows.whole_p99 tm.opened.Wire.win 0));
      ("write_p99_whole", json_float (Windows.whole_p99 tm.opened.Wire.win 1));
      ("read_p99_by_window", json_floats (Windows.p99s tm.opened.Wire.win 0));
      ("write_p99_by_window", json_floats (Windows.p99s tm.opened.Wire.win 1));
    ]

(* The deleted cards stay deleted: a fast post to each is dropped. *)
let deleted_absent conns deleted =
  let n_conns = Array.length conns in
  let reqs =
    Array.mapi
      (fun i obj -> (i mod n_conns, 0, P.Post_event { obj; event = "BigBuy"; args = []; fast = true }))
      deleted
  in
  Array.for_all (function P.Done (P.P_bool false) -> true | _ -> false) (Wire.call_all conns reqs)

let end_checks srv st tm next =
  let live = Fleet.fold_checks ~label:"live" st.model (Fleet.observe_wire st.conns st.cards) in
  Fleet.checkpoint srv;
  ignore
    (Wire.closed_loop ~count:Config.crash_tail_jobs (Wire.driver st.conns) ~window:Config.window
       ~secs:60.0 ~next);
  Fleet.close_all st.conns;
  let recovery_s, path = Fleet.crash_recover srv in
  let conns = Fleet.connect_all path in
  let recovered = Fleet.fold_checks ~label:"recovered" st.model (Fleet.observe_wire conns st.cards) in
  let absent = deleted_absent conns st.deleted in
  Fleet.close_all conns;
  ( [
      check "transactions commit" (tm.tally.committed > 0) (string_of_int tm.tally.committed);
      check "fast posts to deleted cards dropped" (tm.tally.posted_live = 0)
        (Printf.sprintf "%d of %d applied" tm.tally.posted_live tm.tally.posts);
    ]
    @ live @ recovered
    @ [ check "recovered: deleted cards absent" absent (string_of_int (Array.length st.deleted)) ],
    recovery_s )

let run_untraced ~seed ~seconds =
  let srv = Fleet.spawn spec in
  provenance ~seed;
  let setup_s, (_, st) = Fleet.timed_setups srv setup in
  let tm = timed_phases srv ~seed ~seconds st in
  print_phase_info tm;
  let checks, recovery_s = end_checks srv st tm tm.next in
  Fleet.quit srv;
  let correct = print_checks checks in
  let d = counters_delta tm in
  let wal = d "objects.wal_bytes" + d "triggers.wal_bytes" in
  let r = Windows.lat tm.opened.Wire.win 0 and w = Windows.lat tm.opened.Wire.win 1 in
  {
    correct;
    attempted = tm.tally.attempted;
    failed = tm.tally.failed;
    e2e =
      [
        m "throughput_ops_s" "1/s" (Windows.rate tm.closed.Wire.win);
        m "read_p50_us" "us" r.l_p50;
        m "read_p90_us" "us" r.l_p90;
        m "write_p50_us" "us" w.l_p50;
        m "write_p90_us" "us" w.l_p90;
        m "setup_s" "s" setup_s;
        m "recovery_s" "s" recovery_s;
        m "heap_peak_mb" "MB" tm.p1.Fleet.heap_mb;
        m "wal_bytes_per_write" "B" (ratio wal (2 * timed_committed tm));
      ];
    layers = [];
  }

(* ---------------- traced run ---------------- *)

type lane_op = L_read of int | L_buy of int * float | L_pay of int * float | L_post of int

(* The lane replays single-operation transactions in the server process:
   customer reads, Buy/PayBill on ledger cards, and fast posts to deleted
   cards. *)
let lane_ops st g rs n =
  let lo, hi = C.amount in
  let ops =
    Array.init n (fun _ ->
        match Random.State.int rs 100 with
        | r when r < C.pct_txn -> (
            let i = Random.State.int rs (Array.length st.cards) in
            match Random.State.bool rs with true -> L_buy (i, amount rs lo hi) | false -> L_pay (i, amount rs lo hi))
        | r when r < C.pct_txn + C.pct_read -> L_read (Zipf.draw g.zipf_customers rs)
        | _ -> L_post (Random.State.int rs C.deleted_cards))
  in
  let lane_op = function
    | L_read i -> { Fleet.l_oid = st.customers.(i); l_kind = Fleet.K_get "name" }
    | L_buy (i, a) -> { Fleet.l_oid = st.cards.(i); l_kind = Fleet.K_invoke ("Buy", [ st.merchant; Value.Float a ]) }
    | L_pay (i, a) -> { Fleet.l_oid = st.cards.(i); l_kind = Fleet.K_invoke ("PayBill", [ Value.Float a ]) }
    | L_post i ->
        (* A live card on the same shard resolves the BigBuy event id. *)
        let oid = st.deleted.(i) in
        let via = st.cards.(Oid.to_int oid mod C.shards) in
        { Fleet.l_oid = oid; l_kind = Fleet.K_post_fast via }
  in
  (Array.map lane_op ops, ops)

let fold_lane st tally op outcome =
  tally.attempted <- tally.attempted + 1;
  match (op, outcome) with
  | L_buy (i, a), Fleet.O_ok ->
      let c = st.model.(i) in
      c.Schema.bal <- c.Schema.bal +. a;
      c.Schema.purchases <- c.Schema.purchases + 1
  | L_pay (i, a), Fleet.O_ok ->
      let c = st.model.(i) in
      c.Schema.bal <- c.Schema.bal -. a
  | (L_read _ | L_post _), Fleet.O_ok -> ()
  | _, (Fleet.O_vetoed | Fleet.O_failed) -> tally.failed <- tally.failed + 1

let run_traced ~seed ~seconds =
  let srv = Fleet.spawn spec in
  provenance ~seed;
  let path = Fleet.ready srv in
  let st = setup (Fleet.connect_all path) in
  let tap, pairs = Fleet.recorder 20_000 in
  let tm = timed_phases ~tap srv ~seed ~seconds st in
  print_phase_info tm;
  let lane_tally = new_tally () in
  let g = new_gen st ~seed in
  let lane = Fleet.lane_phase srv ~n:2000 (lane_ops st g (rng ~seed ~lane:20)) (fold_lane st lane_tally) in
  let wire = Fleet.wire_layers srv ~path ~pairs:(pairs ()) ~lane ~opened:tm.opened ~p0:tm.p0 ~p1:tm.p1 in
  let checks, _ = end_checks srv st tm tm.next in
  Fleet.quit srv;
  let correct = print_checks checks in
  let ops = tm.closed.Wire.frames + tm.opened.Wire.frames in
  let before = tm.p0.Fleet.fleet_counters and after = tm.p1.Fleet.fleet_counters in
  Layers.print_counts_per_op ~before ~after ~ops;
  let layers =
    wire
    @ [ ("storage.bloom_negative_ratio", ratio (cdelta ~before ~after "objects.bloom_negatives") (timed_posts tm)) ]
    @ Layers.of_counters ~before ~after ~ops ~writes:(2 * timed_txns tm) ~buys:(timed_txns tm) ~denials:0
    @ Layers.of_gc ~before:tm.p0.Fleet.gc ~after:tm.p1.Fleet.gc ~ops
  in
  {
    correct;
    attempted = tm.tally.attempted + lane_tally.attempted;
    failed = tm.tally.failed + lane_tally.failed;
    e2e = [];
    layers;
  }

let bypassed = [ "core.snapshot_get" ]
