(* The benchmark's schema: the paper's credit-card classes plus
   [BenchCard], a benchmark-owned subclass of CredCard with masked composite
   perpetual triggers, and a plain-OCaml model of every trigger a BenchCard
   carries, against which the workloads check the database's answers. *)

module Session = Ode.Session
module Dsl = Ode.Dsl
module Value = Ode_objstore.Value

let cls = "BenchCard"

(* Card parameters shared by every workload. *)
let cred_lim = 1000.0
let raise_amount = 50.0
let large_big_buy = 500.0
let cleared_share = 0.9

let bump field env ctx =
  Dsl.obj_set env ctx field (Value.Int (Value.to_int (Dsl.obj_get env ctx field) + 1))

(* [Large]: the BigBuy event carries an amount of at least [large_big_buy].
   [Cleared]: the balance is below [cleared_share] of the limit. *)
let large _env (ctx : Ode_trigger.Trigger_def.ctx) =
  match ctx.Ode_trigger.Trigger_def.ev_args with
  | Value.Float a :: _ -> a >= large_big_buy
  | _ -> false

let cleared env ctx = Dsl.obj_float env ctx "currBal" < cleared_share *. Dsl.obj_float env ctx "credLim"

let define_bench_card env =
  Session.define_class env ~name:cls ~parents:[ "CredCard" ]
    ~fields:[ ("streaks", Dsl.int 0); ("bigs", Dsl.int 0); ("settles", Dsl.int 0) ]
    ~masks:[ ("Large", large); ("Cleared", cleared) ]
    ~triggers:
      [
        (* A payment straight after a purchase. *)
        Dsl.trigger "Streak" ~perpetual:true ~event:"after Buy, after PayBill"
          ~action:(bump "streaks");
        (* A large BigBuy user event; irrelevant to Buy and PayBill. *)
        Dsl.trigger "BigSpend" ~perpetual:true ~event:"BigBuy & Large" ~action:(bump "bigs");
        (* Any clearing payment once a large BigBuy was seen. *)
        Dsl.trigger "Settle" ~perpetual:true
          ~event:"relative(BigBuy & Large, after PayBill & Cleared)"
          ~action:(bump "settles");
      ]
    ()

let define env =
  Ode.Credit_card.define_all env;
  define_bench_card env

(* Median over five fresh environments of the schema's definition time,
   ms: FSM compilation and define-time lint. *)
let define_class_ms () =
  Common.median
    (List.init 5 (fun _ ->
         let env = Session.create () in
         let t0 = Common.now_ns () in
         define env;
         float_of_int (Common.now_ns () - t0) /. 1e6))

(* Activations each card carries: [`Wire] for the wire workloads, [`Full]
   (several per object, some irrelevant to each event) for the embedded
   one. *)
let activations = function
  | `Wire -> [ ("DenyCredit", []); ("AutoRaiseLimit", [ Value.Float raise_amount ]); ("Streak", []) ]
  | `Full ->
      [
        ("DenyCredit", []);
        ("AutoRaiseLimit", [ Value.Float raise_amount ]);
        ("Streak", []);
        ("BigSpend", []);
        ("Settle", []);
      ]

(* A starting balance drawn by running the Buy/PayBill walk (Buys refused
   past the limit) from a fixed gap, so every card starts near its
   stationary distribution and the denial share holds steady from the
   first transaction. [p_buy] is the Buy share among Buys and PayBills. *)
let aged_balance rs ~p_buy ~buy:(blo, bhi) ~pay:(plo, phi) =
  let gap = ref 100.0 in
  for _ = 1 to 400 do
    if Random.State.float rs 1.0 < p_buy then begin
      let a = Common.amount rs blo bhi in
      if a <= !gap then gap := !gap -. a
    end
    else gap := !gap +. Common.amount rs plo phi
  done;
  cred_lim -. !gap

(* ---------------- the model ---------------- *)

type last = L_none | L_buy | L_pay | L_big

type card = {
  mutable bal : float;
  mutable lim : float;
  mutable purchases : int;
  mutable streaks : int;
  mutable bigs : int;
  mutable settles : int;
  mutable arl_armed : bool;
  mutable arl_alive : bool;
  mutable big_seen : bool;
  mutable last : last;
}

let new_card ~bal =
  {
    bal;
    lim = cred_lim;
    purchases = 0;
    streaks = 0;
    bigs = 0;
    settles = 0;
    arl_armed = false;
    arl_alive = true;
    big_seen = false;
    last = L_none;
  }

let copy_card c = { c with bal = c.bal }

(* One committed-or-vetoed operation, applied in the order the database ran
   it. Masks read the state the event left behind; every trigger advances
   before any fires, so Settle's [Cleared] sees the limit before
   AutoRaiseLimit raises it. Returns [false] when DenyCredit vetoes a Buy
   (the whole transaction, trigger states included, rolls back). *)
let buy c a =
  let nb = c.bal +. a in
  if nb > c.lim then false
  else begin
    c.bal <- nb;
    c.purchases <- c.purchases + 1;
    if c.arl_alive && nb > 0.8 *. c.lim then c.arl_armed <- true;
    c.last <- L_buy;
    true
  end

let pay_bill c a =
  c.bal <- c.bal -. a;
  let is_cleared = c.bal < cleared_share *. c.lim in
  if c.last = L_buy then c.streaks <- c.streaks + 1;
  if c.big_seen && is_cleared then c.settles <- c.settles + 1;
  if c.arl_alive && c.arl_armed then begin
    c.lim <- c.lim +. raise_amount;
    c.arl_alive <- false
  end;
  c.last <- L_pay

let big_buy c a =
  if a >= large_big_buy then begin
    c.bigs <- c.bigs + 1;
    c.big_seen <- true
  end;
  c.last <- L_big

(* The fields a BenchCard stores, as the database reports them. *)
type observed = {
  o_bal : float;
  o_lim : float;
  o_purchases : int;
  o_streaks : int;
  o_bigs : int;
  o_settles : int;
}

let read_card env txn oid =
  let f name = Session.get_field env txn oid name in
  {
    o_bal = Value.to_float (f "currBal");
    o_lim = Value.to_float (f "credLim");
    o_purchases = Value.to_int (f "purchases");
    o_streaks = Value.to_int (f "streaks");
    o_bigs = Value.to_int (f "bigs");
    o_settles = Value.to_int (f "settles");
  }

(* Full comparison (embedded workload): every stored field and firing
   count. *)
let matches_full c o =
  c.bal = o.o_bal && c.lim = o.o_lim && c.purchases = o.o_purchases && c.streaks = o.o_streaks
  && c.bigs = o.o_bigs && c.settles = o.o_settles

(* Order-free comparison (concurrent workloads): Buy and PayBill commute on
   the balance and the purchase count. *)
let matches_fold c o = c.bal = o.o_bal && c.purchases = o.o_purchases

(* Index of the first card whose observed state disagrees, if any. *)
let first_mismatch matches model observed =
  let n = Array.length model in
  let rec go i = if i >= n then None else if matches model.(i) observed.(i) then go (i + 1) else Some i in
  go 0

(* The database's cards against the model, then against a copy of the
   model with one planted wrong answer (one committed Buy dropped): the
   first check must pass and the second must reject the copy. *)
let checks ~label ~matches model observed =
  let agree = first_mismatch matches model observed in
  let planted = Array.map copy_card model in
  let victim =
    let rec find i = if i >= Array.length planted - 1 || planted.(i).purchases > 0 then i else find (i + 1) in
    find 0
  in
  let c = planted.(victim) in
  c.purchases <- c.purchases - 1;
  c.bal <- c.bal -. 1.0;
  [
    Common.check (label ^ ": cards = model") (agree = None)
      (match agree with
      | None -> Printf.sprintf "%d cards" (Array.length model)
      | Some i -> Printf.sprintf "card %d differs" i);
    Common.check
      (label ^ ": planted wrong answer rejected")
      (first_mismatch matches planted observed <> None)
      (Printf.sprintf "card %d" victim);
  ]
