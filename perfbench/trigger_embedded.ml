(* trigger_embedded — the paper's embedded mode: one Session on the
   caller's thread, Mem store, no server and no shards. Each transaction is
   one operation: a Buy or PayBill invocation, a BigBuy user event posted
   with Session.post_event, or a read. Cards are BenchCards carrying five
   activations, some irrelevant to each event, so the live-event filter has
   work. A closed loop with one caller and one transaction at a time. *)

open Common
module Session = Ode.Session
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module C = Config.Trigger_embedded

type op = Buy of int * float | Pay of int * float | Big of int * float | Read of int

let gen zipf rs =
  let card = Zipf.draw zipf rs in
  let r = Random.State.int rs 100 in
  let range (lo, hi) = amount rs lo hi in
  if r < C.pct_buy then Buy (card, range C.buy_amount)
  else if r < C.pct_buy + C.pct_pay then Pay (card, range C.pay_amount)
  else if r < C.pct_buy + C.pct_pay + C.pct_big then Big (card, range C.big_amount)
  else Read card

let create_env () =
  Session.create ~store:`Mem ~wal_segment_bytes:Config.wal_segment_bytes
    ~ckpt_full_every:Config.ckpt_full_every ~auto_checkpoint_bytes:C.auto_checkpoint_bytes ()

type state = {
  env : Session.t;
  oids : Oid.t array;
  model : Schema.card array;
  merchant : Value.t;
}

(* Schema definition plus provisioning: the cards start at seeded balances
   near their limit (see [Schema.aged_balance]), so DenyCredit vetoes a
   steady share of Buys from the first transaction on. *)
let setup ~seed =
  let env = create_env () in
  Schema.define env;
  let merchant =
    Session.with_txn env (fun txn -> Ode.Credit_card.new_merchant env txn ~name:"bench")
  in
  let rs = rng ~seed ~lane:1 in
  let model =
    let p_buy = float_of_int C.pct_buy /. float_of_int (C.pct_buy + C.pct_pay) in
    Array.init C.cards (fun _ ->
        Schema.new_card
          ~bal:(Schema.aged_balance rs ~p_buy ~buy:C.buy_amount ~pay:C.pay_amount))
  in
  let oids = Array.make C.cards (Oid.of_int 0) in
  let batch = 500 in
  let i = ref 0 in
  while !i < C.cards do
    Session.with_txn env (fun txn ->
        for j = !i to min C.cards (!i + batch) - 1 do
          let oid =
            Session.pnew env txn ~cls:Schema.cls
              ~init:
                [
                  ("credLim", Value.Float Schema.cred_lim);
                  ("currBal", Value.Float model.(j).Schema.bal);
                ]
              ()
          in
          oids.(j) <- oid;
          List.iter
            (fun (trigger, args) -> ignore (Session.activate env txn oid ~trigger ~args))
            (Schema.activations `Full)
        done);
    i := !i + batch
  done;
  { env; oids; model; merchant = Value.Oid merchant }

(* Spans of one traced replay, one sample set per Session call. *)
type spans = {
  s_invoke : Samples.t;
  s_post : Samples.t;
  s_get : Samples.t;
  s_commit : Samples.t;
}

let new_spans () =
  {
    s_invoke = Samples.create ();
    s_post = Samples.create ();
    s_get = Samples.create ();
    s_commit = Samples.create ();
  }

(* Counts a replay or timed loop accumulates. *)
type tally = {
  mutable ops : int;
  mutable writes : int;
  mutable buys : int;
  mutable denials : int;
  mutable failed : int;
  mutable mismatched : int;  (** vetoes the model did not predict, or the reverse *)
}

let new_tally () = { ops = 0; writes = 0; buys = 0; denials = 0; failed = 0; mismatched = 0 }

let exec st tally spans op =
  let env = st.env in
  let wrap s f = match spans with Some sp -> span (s sp) f | None -> f () in
  tally.ops <- tally.ops + 1;
  let write i pred body =
    tally.writes <- tally.writes + 1;
    let ok = Embedded.run_txn st.env ~commit:(wrap (fun sp -> sp.s_commit)) body in
    let expected = pred st.model.(i) in
    if ok <> expected then tally.mismatched <- tally.mismatched + 1;
    if not ok then tally.denials <- tally.denials + 1
  in
  match op with
  | Buy (i, a) ->
      tally.buys <- tally.buys + 1;
      write i
        (fun c -> Schema.buy c a)
        (fun txn ->
          ignore
            (wrap (fun sp -> sp.s_invoke) (fun () ->
                 Session.invoke env txn st.oids.(i) "Buy" [ st.merchant; Value.Float a ])))
  | Pay (i, a) ->
      write i
        (fun c ->
          Schema.pay_bill c a;
          true)
        (fun txn ->
          ignore
            (wrap (fun sp -> sp.s_invoke) (fun () ->
                 Session.invoke env txn st.oids.(i) "PayBill" [ Value.Float a ])))
  | Big (i, a) ->
      write i
        (fun c ->
          Schema.big_buy c a;
          true)
        (fun txn ->
          wrap (fun sp -> sp.s_post) (fun () ->
              Session.post_event ~args:[ Value.Float a ] env txn st.oids.(i) "BigBuy"))
  | Read i ->
      if
        not
          (Embedded.run_txn st.env ~commit:(wrap (fun sp -> sp.s_commit)) (fun txn ->
               match
                 wrap (fun sp -> sp.s_get) (fun () -> Session.get_field env txn st.oids.(i) "currBal")
               with
               | Value.Float b when b = st.model.(i).Schema.bal -> ()
               | _ -> tally.mismatched <- tally.mismatched + 1))
      then tally.mismatched <- tally.mismatched + 1

let exec_safe st tally spans op =
  try exec st tally spans op
  with e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "trigger_embedded: %s\n%!" (Printexc.to_string e)

(* ---------------- checks ---------------- *)

let observe env oids =
  Session.with_snapshot env (fun txn -> Array.map (fun oid -> Schema.read_card env txn oid) oids)

let state_checks ~label = Schema.checks ~label ~matches:Schema.matches_full

let recover img =
  Session.recover ~wal_segment_bytes:Config.wal_segment_bytes ~ckpt_full_every:Config.ckpt_full_every
    ~auto_checkpoint_bytes:C.auto_checkpoint_bytes img

(* ---------------- runs ---------------- *)

let provenance ~seed =
  print_info "provenance"
    [
      ("workload", json_string "trigger_embedded");
      ("nproc", string_of_int (nproc ()));
      ("cpus_pinned", string_of_int (cpus_pinned ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("git_rev", json_string (git_rev ()));
      ("seed", string_of_int seed);
      ("store", json_string "mem");
      ("durability", json_string "immediate");
      ("flush_policy", json_string "immediate, no simulated log-force cost");
      ("shards", "0");
      ("client_threads", "1");
      ("cards", string_of_int C.cards);
      ("activations_per_card", string_of_int (List.length (Schema.activations `Full)));
      ("wal_segment_bytes", string_of_int Config.wal_segment_bytes);
      ("auto_checkpoint_bytes", string_of_int C.auto_checkpoint_bytes);
      ("offered_rate", json_string "closed loop, one transaction at a time");
    ]

let run_untraced ~seed ~seconds =
  provenance ~seed;
  let setup_s, st = timed_reps Config.setup_reps ~drop:ignore (fun () -> setup ~seed) in
  let zipf = Zipf.create ~n:C.cards ~theta:C.zipf_theta (rng ~seed ~lane:2) in
  let rs = rng ~seed ~lane:3 in
  let tally = new_tally () in
  let before = Session.counters st.env in
  (* Denials, Buys and trigger firings at the half-way point. *)
  let half = ref None and half_heap = ref 0.0 in
  let win =
    Embedded.closed_loop ~seconds
      ~at_half:(fun () ->
        half := Some (tally.denials, tally.buys, cget (Session.counters st.env) "rt.fires_immediate");
        half_heap := heap_mb ())
      (fun () ->
        let op = gen zipf rs in
        exec_safe st tally None op;
        Some (match op with Read _ -> 0 | _ -> 1))
  in
  let after = Session.counters st.env in
  let end_heap = heap_mb () and heap = heap_peak_mb () in
  let d = cdelta ~before ~after in
  (* The timed loop's figures, before the crash tail adds to the tally. *)
  let denials = tally.denials and buys = tally.buys in
  let committed_writes = tally.writes - denials in
  let wal_bytes = d "objects.wal_bytes" + d "triggers.wal_bytes" in
  let live = state_checks ~label:"live" st.model (observe st.env st.oids) in
  (* A fresh anchor and a fixed tail before the crash, as in the wire
     workloads. *)
  Embedded.checkpoint_anchor st.env;
  for _ = 1 to Config.crash_tail_jobs do
    exec_safe st tally None (gen zipf rs)
  done;
  let recovery_s, env' = Embedded.recover_timed st.env recover in
  let recovered = observe env' st.oids in
  let r = Windows.lat win 0 and w = Windows.lat win 1 in
  let half_denials, half_buys, half_fires = Option.value !half ~default:(0, 0, 0) in
  let fires = d "rt.fires_immediate" and fires0 = cget before "rt.fires_immediate" in
  print_info "stationarity"
    [
      ("first_half_ops_s", json_float (Windows.first_half_rate win));
      ("second_half_ops_s", json_float (Windows.second_half_rate win));
      ("first_half_deny_share", json_float (ratio half_denials half_buys));
      ("second_half_deny_share", json_float (ratio (denials - half_denials) (buys - half_buys)));
      ("first_half_fires", string_of_int (half_fires - fires0));
      ("second_half_fires", string_of_int (fires - (half_fires - fires0)));
      ("checkpoints", string_of_int (d "objects.ckpt_fulls" + d "objects.ckpt_deltas"));
      ("segments_retired", string_of_int (d "objects.segments_retired" + d "triggers.segments_retired"));
      ("half_heap_mb", json_float !half_heap);
      ("end_heap_mb", json_float end_heap);
    ];
  print_info "samples"
    [
      ("reads", string_of_int r.l_n);
      ("writes", string_of_int w.l_n);
      ("read_p99", json_float r.l_p99);
      ("write_p99", json_float w.l_p99);
      ("fail_ratio", json_float (ratio tally.failed tally.ops));
      ("denials", string_of_int denials);
    ];
  let checks =
    [
      check "vetoes match the model" (tally.mismatched = 0) (Printf.sprintf "%d mismatches" tally.mismatched);
      check "denials occur" (denials > 0) (string_of_int denials);
      check "triggers fire" (fires > denials) (Printf.sprintf "%d fires, %d denials" fires denials);
    ]
    @ live
    @ state_checks ~label:"recovered" st.model recovered
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
        m "wal_bytes_per_write" "B" (ratio wal_bytes committed_writes);
      ];
    layers = [];
  }

(* A fixed-length replay of the seeded stream; [spans] switches tracing on.
   Returns its wall time and what the checks and metrics need. *)
let replay ~seed spans =
  let st = setup ~seed in
  let zipf = Zipf.create ~n:C.cards ~theta:C.zipf_theta (rng ~seed ~lane:2) in
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

(* The rt.* counter deltas of a replay: a pure function of the seed. *)
let rt_deltas ~before ~after =
  List.filter_map
    (fun (k, v) ->
      if String.starts_with ~prefix:"rt." k then Some (k, v - cget before k) else None)
    after

(* The two traced replays must give the same rt.* counts. *)
let run_traced ~seed =
  provenance ~seed;
  let replays, overhead = Embedded.alternate ~new_spans (replay ~seed) in
  let rt_counts = List.map (fun ((_, _, before, after, _, _), _) -> rt_deltas ~before ~after) replays in
  let (st, tally, before, after, g0, g1), sp = List.hd replays in
  let observed = observe st.env st.oids in
  let repeat = match rt_counts with [ a; b ] -> a = b | _ -> false in
  let checks =
    check "vetoes match the model" (tally.mismatched = 0) (Printf.sprintf "%d mismatches" tally.mismatched)
    :: check "rt.* counts repeat exactly" repeat "two traced replays of the seed"
    :: state_checks ~label:"traced replay" st.model observed
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
    ]
    @ Layers.of_counters ~before ~after ~ops:tally.ops ~writes:tally.writes ~buys:tally.buys
        ~denials:tally.denials
    @ Layers.of_gc ~before:g0 ~after:g1 ~ops:tally.ops
  in
  { correct; attempted = tally.ops; failed = tally.failed; e2e = []; layers }

let bypassed = [ "net."; "parallel."; "loadgen."; "core.snapshot_get"; "storage.pool"; "storage.page"; "storage.bloom" ]
