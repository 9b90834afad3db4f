(* The per-transaction record cache in Database: a transaction decodes
   each object it holds a lock on once, and every later read in the same
   transaction (method bodies, masks, get_field, certified lock-free
   cascades) is served from the decoded record. These tests pin what the
   cache may and may not change: the read count, reads-your-own-writes,
   abort and delete visibility, and the two lock-free read paths
   (snapshot readers and certified cascades), on both backends. *)

module Session = Ode.Session
module Credit_card = Ode.Credit_card
module Dsl = Ode.Dsl
module Runtime = Ode_trigger.Runtime
module Value = Ode_objstore.Value

let counter env name = try List.assoc name (Session.counters env) with Not_found -> 0

let card_env kind =
  let env = Session.create ~store:kind () in
  Credit_card.define_all env;
  let card, merchant =
    Session.with_txn env (fun txn ->
        let customer = Credit_card.new_customer env txn ~name:"Robert" in
        let merchant = Credit_card.new_merchant env txn ~name:"Books & Co" in
        (Credit_card.new_card env txn ~customer ~limit:1000.0 (), merchant))
  in
  (env, card, merchant)

(* The Buy body reads and writes the card, both before- and after-Buy
   postings evaluate the OverLimit and MoreCred masks against it, and
   MoreCred invokes GoodCredHist on it: one store read covers them all. *)
let buy_reads_card_once kind () =
  let env, card, merchant = card_env kind in
  Session.with_txn env (fun txn ->
      ignore (Session.activate env txn card ~trigger:"DenyCredit" ~args:[]);
      ignore (Session.activate env txn card ~trigger:"AutoRaiseLimit" ~args:[ Dsl.float 500.0 ]));
  let reads = counter env "objects.reads" in
  Session.with_txn env (fun txn -> Credit_card.buy env txn card ~merchant ~amount:850.0);
  Alcotest.(check int) "one object read per Buy" 1 (counter env "objects.reads" - reads);
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "Buy applied" 850.0 (Credit_card.balance env txn card))

let reads_own_write kind () =
  let env, card, _ = card_env kind in
  Session.with_txn env (fun txn ->
      ignore (Session.get_field env txn card "currBal");
      Session.set_field env txn card "currBal" (Dsl.float 12.5);
      Alcotest.(check (float 1e-9)) "same transaction sees the write" 12.5
        (Value.to_float (Session.get_field env txn card "currBal")))

let abort_restores_before_image kind () =
  let env, card, _ = card_env kind in
  let txn = Session.begin_txn env in
  Session.set_field env txn card "currBal" (Dsl.float 99.0);
  Session.abort env txn;
  Session.with_txn env (fun txn ->
      Alcotest.(check (float 1e-9)) "next transaction reads the before-image" 0.0
        (Value.to_float (Session.get_field env txn card "currBal")))

let delete_hides_object kind () =
  let env, _, merchant = card_env kind in
  Session.with_txn env (fun txn ->
      ignore (Session.get_field env txn merchant "name");
      Session.pdelete env txn merchant;
      Alcotest.(check bool) "gone in the deleting transaction" false
        (Session.exists env txn merchant));
  Session.with_txn env (fun txn ->
      Alcotest.(check bool) "gone after commit" false (Session.exists env txn merchant))

let snapshot_reads_pinned_version kind () =
  let env, card, _ = card_env kind in
  let snap = Session.begin_snapshot env in
  let before = Value.to_float (Session.get_field env snap card "currBal") in
  let writer = Session.begin_txn env in
  Session.set_field env writer card "currBal" (Dsl.float 77.0);
  Alcotest.(check (float 1e-9)) "writer reads its own write" 77.0
    (Value.to_float (Session.get_field env writer card "currBal"));
  Alcotest.(check (float 1e-9)) "snapshot reads its version under the writer's lock" before
    (Value.to_float (Session.get_field env snap card "currBal"));
  Session.commit env writer;
  Alcotest.(check (float 1e-9)) "and still after the writer commits" before
    (Value.to_float (Session.get_field env snap card "currBal"));
  Session.commit env snap;
  Session.with_snapshot env (fun snap ->
      Alcotest.(check (float 1e-9)) "a fresh snapshot sees the commit" 77.0
        (Value.to_float (Session.get_field env snap card "currBal")))

(* Watch is read-only and declared so, hence Concur-certified: its firing
   reads on the lock-free read-committed path. Inside the writing
   transaction that path must still see the write. *)
let certified_cascade_sees_own_write kind () =
  let env = Session.create ~store:kind () in
  let seen = ref [] in
  Session.define_class env ~name:"Gauge"
    ~fields:[ ("n", Dsl.int 0) ]
    ~events:[ Dsl.user_event "Ping" ]
    ~triggers:
      [
        Dsl.trigger "Watch" ~perpetual:true ~event:"Ping" ~reads:[ "Gauge" ]
          ~action:(fun env ctx -> seen := Value.to_int (Dsl.obj_get env ctx "n") :: !seen);
      ]
    ();
  ignore (Session.concur_report env);
  Alcotest.(check bool) "Watch certified" true
    (Runtime.snapshot_safe (Session.runtime env) ~cls:"Gauge" ~trigger:"Watch");
  let gauge, ping =
    Session.with_txn env (fun txn ->
        let gauge = Session.pnew env txn ~cls:"Gauge" ~init:[ ("n", Dsl.int 7) ] () in
        ignore (Session.activate env txn gauge ~trigger:"Watch" ~args:[]);
        (gauge, Session.user_event_id env txn gauge "Ping"))
  in
  Session.with_txn env (fun txn ->
      Runtime.post (Session.runtime env) txn ~obj:gauge ~event:ping;
      Session.set_field env txn gauge "n" (Dsl.int 8);
      Runtime.post (Session.runtime env) txn ~obj:gauge ~event:ping);
  Alcotest.(check (list int)) "committed value, then the transaction's own write" [ 7; 8 ]
    (List.rev !seen)

let suite =
  List.concat_map
    (fun (kind, label) ->
      let case name f = Alcotest.test_case (Printf.sprintf "%s (%s)" name label) `Quick (f kind) in
      [
        case "Buy with DenyCredit and AutoRaiseLimit reads the card once" buy_reads_card_once;
        case "get_field after set_field sees the new value" reads_own_write;
        case "after an abort the next transaction reads the before-image"
          abort_restores_before_image;
        case "after pdelete the object does not exist" delete_hides_object;
        case "a snapshot reads its pinned version under a writer's lock"
          snapshot_reads_pinned_version;
        case "a certified lock-free cascade sees its transaction's write"
          certified_cascade_sees_own_write;
      ])
    [ (`Mem, "mem"); (`Disk, "disk") ]
