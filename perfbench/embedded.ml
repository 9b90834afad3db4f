(* What the two embedded workloads share: one Session on the caller's
   thread, driven by a closed loop with one caller. *)

open Common
module Session = Ode.Session
module Txn = Ode_storage.Txn
module Runtime = Ode_trigger.Runtime

(* One transaction on [env]: the steps of Session.with_txn spelled out, so
   a traced run can give the commit its own span. [commit] runs the commit
   it is given, timed or not; traced and untraced runs take this same
   path. Returns [false] when a trigger vetoed the transaction. *)
let run_txn env ~commit body =
  let txn = Session.begin_txn env in
  (* A failure other than a veto: roll back without before-tabort
     posting, as Session.with_txn does, and re-raise. *)
  let fail e =
    (if Txn.is_active txn then try Txn.abort txn with _ -> ());
    Runtime.forget (Session.runtime env) txn;
    raise e
  in
  match body txn with
  | exception Runtime.Tabort ->
      Session.abort env txn;
      false
  | exception e -> fail e
  | () -> (
      match commit (fun () -> Session.commit env txn) with
      | () -> true
      | exception Runtime.Tabort ->
          if Txn.is_active txn then Session.abort env txn;
          false
      | exception e -> fail e)

(* The timed loop: [step ()] runs the next job and returns its latency
   class (0 read, 1 write, [None] untimed), for [seconds]. [at_half] runs
   once, after the first job that ends past half-time. *)
let closed_loop ~seconds ~at_half step =
  let t_start = now_ns () in
  let win = Windows.create ~t0:t_start ~secs:seconds ~across:Mean ~classes:2 in
  let t_half = t_start + int_of_float (seconds *. 0.5e9) in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  let halfway = ref false in
  let now = ref t_start in
  while !now < t_end do
    let t0 = !now in
    let cls = step () in
    let t1 = now_ns () in
    Windows.count win t1;
    Option.iter (fun c -> Windows.add win c ~due:t0 (us_of_ns (t1 - t0))) cls;
    if t1 >= t_half && not !halfway then begin
      halfway := true;
      at_half ()
    end;
    now := t1
  done;
  win

(* Enough checkpoints to pass a full anchor of the incremental chain, so
   the crash that follows leaves the same kind of log in every run. *)
let checkpoint_anchor env =
  for _ = 1 to Config.ckpt_full_every do
    Session.checkpoint env
  done

(* Crash, then [recover] from the image [Config.recovery_reps] times, the
   schema replay included: the median time and the last recovered
   environment. *)
let recover_timed env recover =
  let img = Session.crash env in
  timed_reps Config.recovery_reps ~drop:ignore (fun () ->
      let env' = recover img in
      Schema.define env';
      env')

(* Untraced and traced replays of a fixed stretch of the seeded stream
   alternate twice, each from a compacted heap. [replay spans] returns its
   wall time in seconds and its result. Returns the traced replays' results
   with their spans, newest first, and the tracing overhead in percent
   from the median times. *)
let alternate ~new_spans replay =
  let plain = ref [] and traced = ref [] in
  for _ = 1 to 2 do
    Gc.compact ();
    plain := fst (replay None) :: !plain;
    Gc.compact ();
    let sp = new_spans () in
    let wall, r = replay (Some sp) in
    traced := (wall, (r, sp)) :: !traced
  done;
  let wall_plain = median !plain and wall_traced = median (List.map fst !traced) in
  print_info "trace" [ ("untraced_s", json_float wall_plain); ("traced_s", json_float wall_traced) ];
  (List.map snd !traced, 100.0 *. ((wall_traced /. wall_plain) -. 1.0))
