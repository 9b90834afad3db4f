(* wire_cards — the paper's credit-card schema over the wire. A server on a
   unix socket over a Free-mode fleet of two shard domains, Mem store,
   Immediate durability, no simulated flush cost. Each BenchCard carries
   DenyCredit, AutoRaiseLimit and the perpetual composite Streak. Cards are
   picked zipfian; the mix is Get_field, Snapshot_get, and Buy/PayBill
   invocations on stream 0. A closed loop (fixed window per connection)
   gives throughput, then an open loop at a fixed offered rate gives
   latency. *)

open Common
module P = Ode_net.Proto
module Sharded = Ode_parallel.Sharded
module Session = Ode.Session
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module C = Config.Wire_cards

let schema ~shard:_ env = Schema.define env

let make_fleet () =
  Sharded.create ~store:`Mem ~durability:Ode_storage.Commit_pipeline.Immediate
    ~wal_segment_bytes:Config.wal_segment_bytes ~ckpt_full_every:Config.ckpt_full_every
    ~auto_checkpoint_bytes:C.auto_checkpoint_bytes ~shards:C.shards ~mode:Sharded.Free ~schema ()

let recover img =
  Sharded.recover ~durability:Ode_storage.Commit_pipeline.Immediate
    ~wal_segment_bytes:Config.wal_segment_bytes ~ckpt_full_every:Config.ckpt_full_every
    ~auto_checkpoint_bytes:C.auto_checkpoint_bytes ~mode:Sharded.Free ~schema img

let spec = { Fleet.make_fleet; recover }

type state = {
  conns : Wire.conn array;
  oids : Oid.t array;
  model : Schema.card array;
  merchant : Value.t;
}

(* Provision cards through the wire, each created and activated inside an
   interactive transaction pinned to its home shard. *)
let provision ~conns ~model ~activations =
  let merchant = Fleet.new_obj conns ~cls:"Merchant" [ ("name", Value.Str "bench") ] in
  let oids =
    Fleet.create_objects conns ~shards:C.shards ~count:(Array.length model) (fun i ->
        ( Schema.cls,
          [ ("credLim", Value.Float Schema.cred_lim); ("currBal", Value.Float model.(i).Schema.bal) ] ))
  in
  Fleet.on_objects conns ~shards:C.shards oids (fun oid ->
      List.map (fun (trigger, args) -> P.Activate { obj = oid; trigger; args }) activations);
  (oids, Value.Oid merchant)

let setup ~seed conns =
  let rs = rng ~seed ~lane:1 in
  let p_buy = float_of_int C.pct_buy /. float_of_int (100 - C.pct_get - C.pct_snap) in
  let model =
    Array.init C.cards (fun _ ->
        Schema.new_card ~bal:(Schema.aged_balance rs ~p_buy ~buy:C.buy_amount ~pay:C.pay_amount))
  in
  let oids, merchant = provision ~conns ~model ~activations:(Schema.activations `Wire) in
  { conns; oids; model; merchant }

(* ---------------- the request stream ---------------- *)

(* The fold of acknowledged writes. *)
let credit st i a =
  let c = st.model.(i) in
  c.Schema.bal <- c.Schema.bal +. a;
  c.Schema.purchases <- c.Schema.purchases + 1

let debit st i a =
  let c = st.model.(i) in
  c.Schema.bal <- c.Schema.bal -. a

type op = Get of int | Snap of int | Buy of int * float | Pay of int * float

let gen zipf rs =
  let i = Zipf.draw zipf rs in
  let r = Random.State.int rs 100 in
  let range (lo, hi) = amount rs lo hi in
  if r < C.pct_get then Get i
  else if r < C.pct_get + C.pct_snap then Snap i
  else if r < C.pct_get + C.pct_snap + C.pct_buy then Buy (i, range C.buy_amount)
  else Pay (i, range C.pay_amount)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable buys : int;
  mutable denials : int;
  mutable writes : int;
}

let new_tally () = { attempted = 0; failed = 0; buys = 0; denials = 0; writes = 0 }

(* The job for one op: its reply folds into the model (acknowledged Buys
   and PayBills) or into the tally (vetoes, failures). *)
let job st tally op =
  tally.attempted <- tally.attempted + 1;
  let fail () = tally.failed <- tally.failed + 1 in
  let read req = ([ (0, req) ], 0, function P.Done (P.P_value (Value.Float _)) -> () | _ -> fail ()) in
  let frames, cls, on_reply =
    match op with
    | Get i -> read (P.Get_field { obj = st.oids.(i); field = "currBal" })
    | Snap i -> read (P.Snapshot_get { obj = st.oids.(i); field = "currBal" })
    | Buy (i, a) ->
        tally.buys <- tally.buys + 1;
        tally.writes <- tally.writes + 1;
        ( [ (0, P.Invoke { obj = st.oids.(i); meth = "Buy"; args = [ st.merchant; Value.Float a ] }) ],
          1,
          function
          | P.Done _ -> credit st i a
          | P.Fail { code = P.E_aborted; _ } -> tally.denials <- tally.denials + 1
          | P.Fail _ -> fail () )
    | Pay (i, a) ->
        tally.writes <- tally.writes + 1;
        ( [ (0, P.Invoke { obj = st.oids.(i); meth = "PayBill"; args = [ Value.Float a ] }) ],
          1,
          function P.Done _ -> debit st i a | P.Fail _ -> fail () )
  in
  { Wire.frames; cls; on_reply = (fun _ r -> on_reply r) }

(* ---------------- the timed phases ---------------- *)

(* The tally's write counts at one point of the run. *)
type mark = { k_writes : int; k_buys : int; k_denials : int }

let mark t = { k_writes = t.writes; k_buys = t.buys; k_denials = t.denials }

type timed = {
  closed : Wire.phase;
  opened : Wire.phase;
  tally : tally;
  p0 : Fleet.probe;
  p1 : Fleet.probe;
  m0 : mark;  (** when [p0] was taken: after the warm-up *)
  m_mid : mark;  (** between the closed and the open phase *)
  m1 : mark;  (** when [p1] was taken *)
  next : int -> Wire.job;  (** the job stream, to continue after the timed phases *)
}

(* Writes, Buys and vetoes between two marks. *)
let writes_between a b = b.k_writes - a.k_writes
let buys_between a b = b.k_buys - a.k_buys
let denials_between a b = b.k_denials - a.k_denials
let deny_share a b = ratio (denials_between a b) (buys_between a b)

(* Committed writes of the timed phases, the ones counter deltas between
   [p0] and [p1] describe. *)
let committed_writes tm = writes_between tm.m0 tm.m1 - denials_between tm.m0 tm.m1

let timed_phases ?tap srv ~seed ~seconds st =
  let zipf = Zipf.create ~n:C.cards ~theta:C.zipf_theta (rng ~seed ~lane:2) in
  let rngs = Array.mapi (fun ci _ -> rng ~seed ~lane:(10 + ci)) st.conns in
  let tally = new_tally () in
  let next ci = job st tally (gen zipf rngs.(ci)) in
  let d = Wire.driver ?tap st.conns in
  (* Warm-up, untimed: caches fill and the heap grows to its working size. *)
  ignore (Wire.closed_loop d ~window:Config.window ~secs:Config.warmup_s ~next);
  let p0 = Fleet.probe srv in
  let m0 = mark tally in
  let closed = Wire.closed_loop d ~window:Config.window ~secs:(seconds /. 2.0) ~next in
  let m_mid = mark tally in
  let opened = Wire.open_loop d ~rate:C.open_rate ~secs:(seconds /. 2.0) ~next in
  let p1 = Fleet.probe srv in
  { closed; opened; tally; p0; p1; m0; m_mid; m1 = mark tally; next }

let counters_delta tm = cdelta ~before:tm.p0.Fleet.fleet_counters ~after:tm.p1.Fleet.fleet_counters

let provenance ~seed =
  print_info "provenance"
    [
      ("workload", json_string "wire_cards");
      ("nproc", string_of_int (nproc ()));
      ("cpus_pinned", string_of_int (cpus_pinned ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("git_rev", json_string (git_rev ()));
      ("seed", string_of_int seed);
      ("store", json_string "mem");
      ("durability", json_string "immediate");
      ("flush_policy", json_string "immediate, no simulated log-force cost");
      ("shards", string_of_int C.shards);
      ("mode", json_string "free");
      ("client_threads", "1");
      ("connections", string_of_int (Fleet.n_conns ()));
      ("closed_window_per_conn", string_of_int Config.window);
      ("open_rate_req_s", json_float C.open_rate);
      ("cards", string_of_int C.cards);
      ("zipf_theta", json_float C.zipf_theta);
      ("wal_segment_bytes", string_of_int Config.wal_segment_bytes);
      ("auto_checkpoint_bytes", string_of_int C.auto_checkpoint_bytes);
    ]

let print_phase_info tm =
  let half ph = Windows.first_half_rate ph.Wire.win in
  let second ph = Windows.second_half_rate ph.Wire.win in
  let d = counters_delta tm in
  print_info "stationarity"
    [
      ("closed_first_half_req_s", json_float (half tm.closed));
      ("closed_second_half_req_s", json_float (second tm.closed));
      ("open_first_half_req_s", json_float (half tm.opened));
      ("open_second_half_req_s", json_float (second tm.opened));
      ("deny_share_closed", json_float (deny_share tm.m0 tm.m_mid));
      ("deny_share_open", json_float (deny_share tm.m_mid tm.m1));
      ("server_minor_gcs", string_of_int (tm.p1.Fleet.gc.g_minor_gcs - tm.p0.Fleet.gc.g_minor_gcs));
      ("server_major_gcs", string_of_int (tm.p1.Fleet.gc.g_major - tm.p0.Fleet.gc.g_major));
      ("fires", string_of_int (d "rt.fires_immediate"));
      ("checkpoints", string_of_int (d "objects.ckpt_fulls" + d "objects.ckpt_deltas"));
      ("segments_retired", string_of_int (d "objects.segments_retired" + d "triggers.segments_retired"));
    ];
  let r = Windows.lat tm.opened.Wire.win 0 and w = Windows.lat tm.opened.Wire.win 1 in
  print_info "samples"
    [
      ("open_reads", string_of_int r.l_n);
      ("open_writes", string_of_int w.l_n);
      ("fail_ratio", json_float (ratio tm.tally.failed tm.tally.attempted));
      ("denials", string_of_int (denials_between tm.m0 tm.m1));
      ("lag_p99_us", json_float (pct (Samples.sorted tm.opened.Wire.lag) 0.99));
      ("read_p99", json_float r.l_p99);
      ("write_p99", json_float w.l_p99);
      ("read_p99_whole", json_float (Windows.whole_p99 tm.opened.Wire.win 0));
      ("write_p99_whole", json_float (Windows.whole_p99 tm.opened.Wire.win 1));
      ("read_p99_by_window", json_floats (Windows.p99s tm.opened.Wire.win 0));
      ("write_p99_by_window", json_floats (Windows.p99s tm.opened.Wire.win 1));
    ]

(* Liveness of the trigger path, the live fold check, then crash and
   recovery: the recovered fleet is read over the wire the same way.
   Returns the checks and the recovery time. *)
let end_checks srv st tm next =
  let d = counters_delta tm in
  let live = Fleet.fold_checks ~label:"live" st.model (Fleet.observe_wire st.conns st.oids) in
  Fleet.checkpoint srv;
  ignore
    (Wire.closed_loop ~count:Config.crash_tail_jobs (Wire.driver st.conns) ~window:Config.window
       ~secs:60.0 ~next);
  Fleet.close_all st.conns;
  let recovery_s, path = Fleet.crash_recover srv in
  let conns = Fleet.connect_all path in
  let recovered = Fleet.fold_checks ~label:"recovered" st.model (Fleet.observe_wire conns st.oids) in
  Fleet.close_all conns;
  let denials = denials_between tm.m0 tm.m1 in
  ( [
      check "denials occur" (denials > 0) (string_of_int denials);
      check "triggers fire" (d "rt.fires_immediate" > denials)
        (Printf.sprintf "%d fires, %d denials" (d "rt.fires_immediate") denials);
    ]
    @ live @ recovered,
    recovery_s )

let run_untraced ~seed ~seconds =
  let srv = Fleet.spawn spec in
  provenance ~seed;
  let setup_s, (_, st) = Fleet.timed_setups srv (setup ~seed) in
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
        m "wal_bytes_per_write" "B" (ratio wal (committed_writes tm));
      ];
    layers = [];
  }

(* ---------------- traced run ---------------- *)

(* The in-process lane replays a separate slice of the seeded stream in
   the server process: the same Session calls the server makes for each
   request, each one a span. Acknowledged writes fold into the model like
   wire replies. *)
let lane_ops st zipf rs n =
  let ops = Array.init n (fun _ -> gen zipf rs) in
  let lane_op op =
    let i = match op with Get i | Snap i | Buy (i, _) | Pay (i, _) -> i in
    let l_kind =
      match op with
      | Get _ -> Fleet.K_get "currBal"
      | Snap _ -> Fleet.K_snap "currBal"
      | Buy (_, a) -> Fleet.K_invoke ("Buy", [ st.merchant; Value.Float a ])
      | Pay (_, a) -> Fleet.K_invoke ("PayBill", [ Value.Float a ])
    in
    { Fleet.l_oid = st.oids.(i); l_kind }
  in
  (Array.map lane_op ops, ops)

let fold_lane st tally op outcome =
  tally.attempted <- tally.attempted + 1;
  match (op, outcome) with
  | _, Fleet.O_failed -> tally.failed <- tally.failed + 1
  | (Get _ | Snap _), _ -> ()
  | Buy (i, a), outcome ->
      tally.buys <- tally.buys + 1;
      tally.writes <- tally.writes + 1;
      if outcome = Fleet.O_ok then credit st i a else tally.denials <- tally.denials + 1
  | Pay (i, a), Fleet.O_ok ->
      tally.writes <- tally.writes + 1;
      debit st i a
  | Pay _, Fleet.O_vetoed -> tally.failed <- tally.failed + 1

let run_traced ~seed ~seconds =
  let srv = Fleet.spawn spec in
  provenance ~seed;
  let path = Fleet.ready srv in
  let st = setup ~seed (Fleet.connect_all path) in
  let tap, pairs = Fleet.recorder 20_000 in
  let tm = timed_phases ~tap srv ~seed ~seconds st in
  print_phase_info tm;
  let lane_tally = new_tally () in
  let zipf = Zipf.create ~n:C.cards ~theta:C.zipf_theta (rng ~seed ~lane:2) in
  let lane = Fleet.lane_phase srv ~n:4000 (lane_ops st zipf (rng ~seed ~lane:20)) (fold_lane st lane_tally) in
  let wire = Fleet.wire_layers srv ~path ~pairs:(pairs ()) ~lane ~opened:tm.opened ~p0:tm.p0 ~p1:tm.p1 in
  let checks, _ = end_checks srv st tm tm.next in
  Fleet.quit srv;
  let correct = print_checks checks in
  let ops = tm.closed.Wire.frames + tm.opened.Wire.frames in
  let before = tm.p0.Fleet.fleet_counters and after = tm.p1.Fleet.fleet_counters in
  Layers.print_counts_per_op ~before ~after ~ops;
  let layers =
    wire
    @ Layers.of_counters ~before ~after ~ops ~writes:(writes_between tm.m0 tm.m1)
        ~buys:(buys_between tm.m0 tm.m1) ~denials:(denials_between tm.m0 tm.m1)
    @ Layers.of_gc ~before:tm.p0.Fleet.gc ~after:tm.p1.Fleet.gc ~ops
  in
  {
    correct;
    attempted = tm.tally.attempted + lane_tally.attempted;
    failed = tm.tally.failed + lane_tally.failed;
    e2e = [];
    layers;
  }

let bypassed = [ "core.post_event"; "storage.pool"; "storage.page"; "storage.bloom" ]
