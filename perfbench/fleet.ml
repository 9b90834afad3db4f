(* The database side of the two wire workloads. The benchmark forks a
   server process before any domain exists: it owns a sharded fleet behind
   a server on a unix socket inside the checkout, and answers control
   commands from the load generator over a pipe. Keeping the load
   generator in its own process keeps its allocation out of the fleet's
   stop-the-world minor collections, as with any real client.

   The server process also runs the in-process lane that times the
   parallel and core layers through Sharded.post_foreign, reads counters
   at quiescent points, and times crash recovery. *)

open Common
module Server = Ode_net.Server
module Sharded = Ode_parallel.Sharded
module Session = Ode.Session
module Value = Ode_objstore.Value
module Oid = Ode_objstore.Oid

(* How to build the fleet, and how to rebuild it from a crash image. *)
type spec = { make_fleet : unit -> Sharded.t; recover : Sharded.fleet_image -> Sharded.t }

(* ---------------- control protocol ---------------- *)

type lane_kind =
  | K_get of string  (** Get_field in a transaction *)
  | K_snap of string  (** Get_field in a snapshot *)
  | K_invoke of string * Value.t list  (** a method, in its own transaction *)
  | K_post_fast of Oid.t
      (** Session.post_event_fast of BigBuy; the oid is a live card of the
          target's shard that resolves the event id *)

type lane_op = { l_oid : Oid.t; l_kind : lane_kind }
type outcome = O_ok | O_vetoed | O_failed

type lane_result = {
  outcomes : outcome array;
  waits : float array;  (** post_foreign to the closure's first instruction, µs *)
  selfs : float array;  (** closure time minus its Session spans, µs *)
  read_exec : float array;  (** whole closure time of read ops, µs *)
  s_get : float array;
  s_snap : float array;
  s_invoke : float array;
  s_commit : float array;
  s_post : float array;
  wall_s : float;
}

type probe = {
  fleet_counters : (string * int) list;
  server_counters : (string * int) list;
  gc : gc_mark;
  heap_mb : float;
  hwm : int;
}

type cmd =
  | Setup
  | Probe
  | Lane of bool * lane_op array
  | Checkpoint
  | Crash_recover
  | Define_class_ms
  | Quit

type reply =
  | R_ready of string  (** socket path *)
  | R_probe of probe
  | R_lane of lane_result
  | R_recovered of float * string  (** median recovery seconds, new socket path *)
  | R_float of float
  | R_unit
  | R_error of string

(* ---------------- server process ---------------- *)

let run_dir = ".perfbench_run"
let sock_n = ref 0

(* Relative socket paths, so the checkout's location does not count
   against the socket-path length limit. *)
let sock_path () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr sock_n;
  let path = Printf.sprintf "%s/ode-%d-%d.sock" run_dir (Unix.getpid ()) !sock_n in
  (try Sys.remove path with Sys_error _ -> ());
  path

type live = { fleet : Sharded.t; server : Server.t; path : string }

let serve fleet =
  let path = sock_path () in
  { fleet; server = Server.start ~fleet ~listen:[ Server.Unix_sock path ] (); path }

let stop_server l =
  ignore (Server.stop l.server);
  try Sys.remove l.path with Sys_error _ -> ()

let samples_array s = Array.sub s.Samples.a 0 s.Samples.n

(* Run [ops] one at a time, each on its home shard through
   Sharded.post_foreign, with or without spans. *)
let run_lane fleet ~traced ops =
  let k = Sharded.shard_count fleet in
  let waits = Samples.create () and selfs = Samples.create () and read_exec = Samples.create () in
  let s_get = Samples.create () and s_snap = Samples.create () and s_invoke = Samples.create () in
  let s_commit = Samples.create () and s_post = Samples.create () and s_misc = Samples.create () in
  let outcomes = Array.make (Array.length ops) O_failed in
  let mu = Mutex.create () and cv = Condition.create () in
  let finished = ref false in
  let t0 = now_ns () in
  Array.iteri
    (fun idx op ->
      let session_ns = ref 0 in
      let sp s f =
        if traced then begin
          let a = now_ns () in
          let r = f () in
          let d = now_ns () - a in
          session_ns := !session_ns + d;
          Samples.add s (us_of_ns d);
          r
        end
        else f ()
      in
      let oid = op.l_oid in
      let in_txn env span_body commit_span =
        let txn = sp s_misc (fun () -> Session.begin_txn env) in
        match span_body txn with
        | () ->
            sp commit_span (fun () -> Session.commit env txn);
            O_ok
        | exception Ode_trigger.Runtime.Tabort ->
            sp s_misc (fun () -> Session.abort env txn);
            O_vetoed
      in
      let body env =
        match op.l_kind with
        | K_get field ->
            in_txn env (fun txn -> ignore (sp s_get (fun () -> Session.get_field env txn oid field))) s_misc
        | K_snap field ->
            sp s_snap (fun () -> ignore (Session.with_snapshot env (fun txn -> Session.get_field env txn oid field)));
            O_ok
        | K_invoke (meth, args) ->
            in_txn env (fun txn -> ignore (sp s_invoke (fun () -> Session.invoke env txn oid meth args))) s_commit
        | K_post_fast via ->
            in_txn env
              (fun txn ->
                let event = Session.user_event_id env txn via "BigBuy" in
                sp s_post (fun () -> Session.post_event_fast env txn oid ~event))
              s_misc
      in
      let is_read = match op.l_kind with K_get _ | K_snap _ -> true | _ -> false in
      let t_post = now_ns () in
      Sharded.post_foreign fleet ~shard:(Oid.to_int oid mod k) (fun env ->
          let t_start = now_ns () in
          outcomes.(idx) <- (try body env with _ -> O_failed);
          if traced then begin
            let t_end = now_ns () in
            Samples.add waits (us_of_ns (t_start - t_post));
            Samples.add selfs (us_of_ns (t_end - t_start - !session_ns));
            if is_read then Samples.add read_exec (us_of_ns (t_end - t_start))
          end;
          Mutex.lock mu;
          finished := true;
          Condition.signal cv;
          Mutex.unlock mu);
      Mutex.lock mu;
      while not !finished do
        Condition.wait cv mu
      done;
      finished := false;
      Mutex.unlock mu)
    ops;
  let a = samples_array in
  {
    outcomes;
    waits = a waits;
    selfs = a selfs;
    read_exec = a read_exec;
    s_get = a s_get;
    s_snap = a s_snap;
    s_invoke = a s_invoke;
    s_commit = a s_commit;
    s_post = a s_post;
    wall_s = secs_between t0 (now_ns ());
  }

(* Crash the fleet, recover it from the image [Config.recovery_reps]
   times (median time from the image to a recovered fleet), and serve the
   last recovered fleet on a new socket. *)
let crash_and_recover spec l =
  stop_server l;
  let img = Sharded.crash l.fleet in
  let secs, fleet = timed_reps Config.recovery_reps ~drop:Sharded.shutdown (fun () -> spec.recover img) in
  (secs, serve fleet)

let server_loop spec ic oc =
  let live = ref None in
  let get () = match !live with Some l -> l | None -> failwith "no fleet" in
  let teardown () =
    match !live with
    | Some l ->
        stop_server l;
        Sharded.shutdown l.fleet;
        live := None
    | None -> ()
  in
  let rec loop () =
    let cmd : cmd = Marshal.from_channel ic in
    let reply =
      try
        match cmd with
        | Setup ->
            teardown ();
            Gc.compact ();
            let l = serve (spec.make_fleet ()) in
            live := Some l;
            R_ready l.path
        | Probe ->
            let l = get () in
            Sharded.sync l.fleet;
            R_probe
              {
                fleet_counters = Sharded.counters l.fleet;
                server_counters = Server.counters l.server;
                gc = gc_mark ();
                heap_mb = heap_peak_mb ();
                hwm = (Sharded.stats l.fleet).Sharded.fs_mailbox_hwm;
              }
        | Lane (traced, ops) -> R_lane (run_lane (get ()).fleet ~traced ops)
        | Checkpoint ->
            let l = get () in
            Sharded.sync l.fleet;
            (* Enough checkpoints to pass a full anchor of the incremental
               chain, so the crash that follows leaves the same kind of log
               in every run. *)
            for shard = 0 to Sharded.shard_count l.fleet - 1 do
              Sharded.with_shard l.fleet ~key:shard (fun env ->
                  for _ = 1 to Config.ckpt_full_every do
                    Session.checkpoint env
                  done)
            done;
            R_unit
        | Crash_recover ->
            let secs, l = crash_and_recover spec (get ()) in
            live := Some l;
            R_recovered (secs, l.path)
        | Define_class_ms -> R_float (Schema.define_class_ms ())
        | Quit ->
            teardown ();
            R_unit
      with e -> R_error (Printexc.to_string e)
    in
    Marshal.to_channel oc reply [];
    flush oc;
    if cmd <> Quit then loop ()
  in
  loop ();
  (try Unix.rmdir run_dir with Unix.Unix_error _ -> ())

(* ---------------- load-generator side ---------------- *)

type t = { pid : int; to_srv : out_channel; from_srv : in_channel; mutable reaped : bool }

let children : t list ref = ref []

let reap t =
  if not t.reaped then begin
    t.reaped <- true;
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
  end

(* Kill and reap every server process still alive (error paths). *)
let kill_all () =
  List.iter
    (fun t ->
      if not t.reaped then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap t
      end)
    !children

(* Fork the server process. Must run before this process starts any
   domain. *)
let spawn spec =
  flush_all ();
  let c_in, p_out = Unix.pipe () and p_in, c_out = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close p_out;
      Unix.close p_in;
      let code =
        try
          server_loop spec (Unix.in_channel_of_descr c_in) (Unix.out_channel_of_descr c_out);
          0
        with e ->
          Printf.eprintf "server process: %s\n%!" (Printexc.to_string e);
          3
      in
      Unix._exit code
  | pid ->
      Unix.close c_in;
      Unix.close c_out;
      let t =
        {
          pid;
          to_srv = Unix.out_channel_of_descr p_out;
          from_srv = Unix.in_channel_of_descr p_in;
          reaped = false;
        }
      in
      children := t :: !children;
      t

let request t (cmd : cmd) : reply =
  Marshal.to_channel t.to_srv cmd [];
  flush t.to_srv;
  match (Marshal.from_channel t.from_srv : reply) with
  | R_error m -> failwith ("server process: " ^ m)
  | r -> r

let ready t = match request t Setup with R_ready path -> path | _ -> failwith "server process: setup"
let probe t = match request t Probe with R_probe p -> p | _ -> failwith "server process: probe"
let lane t ~traced ops = match request t (Lane (traced, ops)) with R_lane r -> r | _ -> failwith "server process: lane"

let checkpoint t = match request t Checkpoint with R_unit -> () | _ -> failwith "server process: checkpoint"

let crash_recover t =
  match request t Crash_recover with R_recovered (s, p) -> (s, p) | _ -> failwith "server process: recover"

let define_ms t = match request t Define_class_ms with R_float f -> f | _ -> failwith "server process: define"

let quit t =
  ignore (request t Quit);
  close_out t.to_srv;
  close_in t.from_srv;
  reap t

(* The load generator never opens more connections than the host has
   CPUs. *)
let n_conns () = max 1 (min 2 (nproc ()))

let connect_all path = Array.init (n_conns ()) (fun _ -> Wire.connect path)
let close_all conns = Array.iter Wire.close conns

(* Setup (server-side fleet and schema, then provisioning over the wire)
   repeated [Config.setup_reps] times from scratch: the median time, and
   the connections and provisioned state of the last one. *)
let timed_setups t provision =
  timed_reps Config.setup_reps
    ~drop:(fun (conns, _) -> close_all conns)
    (fun () ->
      let conns = connect_all (ready t) in
      (conns, provision conns))

(* Untraced and traced lane passes alternate twice over fresh slices of
   the seeded lane stream ([make_ops n] builds the next [n]); [fold] sees
   every op with its outcome. Returns the last traced pass and the
   overhead in percent. *)
let lane_phase t ~n make_ops fold =
  let plain = ref [] and traced = ref [] and last = ref None in
  for _ = 1 to 2 do
    List.iter
      (fun tr ->
        let ops, meta = make_ops n in
        let r = lane t ~traced:tr ops in
        Array.iteri (fun i o -> fold meta.(i) o) r.outcomes;
        if tr then begin
          traced := r.wall_s :: !traced;
          last := Some r
        end
        else plain := r.wall_s :: !plain)
      [ false; true ]
  done;
  (Option.get !last, 100.0 *. ((median !traced /. median !plain) -. 1.0))

(* ---------------- provisioning and checks over the wire ---------------- *)

module P = Ode_net.Proto

(* Provisioning frames for the items of one shard: [make item] requests in
   interactive transactions of [batch], spread over [streams] streams
   pinned to that shard. *)
let txn_frames ~n_conns ~shard ~streams ~batch items make =
  let frames = ref [] in
  let ci = shard mod n_conns in
  List.iteri
    (fun b chunk ->
      let stream = 1 + (shard * streams) + (b mod streams) in
      frames := (ci, stream, P.Txn_begin { key = shard }) :: !frames;
      List.iter (fun x -> frames := (ci, stream, make x) :: !frames) chunk;
      frames := (ci, stream, P.Txn_commit) :: !frames)
    (let rec chunks l =
       match l with
       | [] -> []
       | _ ->
           let rec take k l acc = if k = 0 || l = [] then (List.rev acc, l) else take (k - 1) (List.tl l) (List.hd l :: acc) in
           let c, rest = take batch l [] in
           c :: chunks rest
     in
     chunks items);
  List.rev !frames

let expect_done = function P.Done _ -> () | _ -> failwith "provisioning request failed"
let payload_oid = function P.Done (P.P_oid o) -> o | _ -> failwith "provisioning request failed"

let new_obj conns ~cls init = payload_oid (Wire.call_all conns [| (0, 0, P.New_obj { cls; init }) |]).(0)

let per_shard ~shards ~count s = List.filter (fun i -> i mod shards = s) (List.init count Fun.id)

let all_shards ~shards make =
  Array.of_list (List.concat_map make (List.init shards Fun.id))

let streams_per_shard = 8
let provision_batch = 250

(* Create [count] objects, object [i] on shard [i mod shards]; [make i] is
   its class and initial fields. Returns the oids by index. *)
let create_objects conns ~shards ~count make =
  let n_conns = Array.length conns in
  let frames =
    all_shards ~shards (fun s ->
        txn_frames ~n_conns ~shard:s ~streams:streams_per_shard ~batch:provision_batch
          (per_shard ~shards ~count s) (fun i ->
            let cls, init = make i in
            P.New_obj { cls; init }))
  in
  let replies = Wire.call_all conns frames in
  (* Within a shard, objects are created in index order. *)
  let oids = Array.make count (Oid.of_int 0) in
  let next = Array.init shards (fun s -> ref (per_shard ~shards ~count s)) in
  Array.iteri
    (fun k (_, _, req) ->
      match req with
      | P.New_obj _ ->
          let o = payload_oid replies.(k) in
          let pending = next.(Oid.to_int o mod shards) in
          oids.(List.hd !pending) <- o;
          pending := List.tl !pending
      | _ -> expect_done replies.(k))
    frames;
  oids

(* Run [make oid] requests for every object, in interactive transactions
   pinned to the object's home shard. *)
let on_objects conns ~shards oids make =
  let n_conns = Array.length conns in
  let count = Array.length oids in
  let frames =
    all_shards ~shards (fun s ->
        txn_frames ~n_conns ~shard:s ~streams:streams_per_shard ~batch:provision_batch
          (List.concat_map (fun i -> make oids.(i)) (per_shard ~shards ~count s))
          Fun.id)
  in
  Array.iter expect_done (Wire.call_all conns frames)

let fold_checks ~label = Schema.checks ~label ~matches:Schema.matches_fold

(* Every card's balance and purchase count, read over the wire with
   Snapshot_get. *)
let observe_wire conns oids =
  let n = Array.length oids in
  let n_conns = Array.length conns in
  let reqs =
    Array.init (2 * n) (fun k ->
        let i = k / 2 in
        let field = if k mod 2 = 0 then "currBal" else "purchases" in
        (i mod n_conns, 0, P.Snapshot_get { obj = oids.(i); field }))
  in
  let r = Wire.call_all conns reqs in
  let v k = match r.(k) with P.Done (P.P_value v) -> v | _ -> Value.Null in
  Array.init n (fun i ->
      {
        Schema.o_bal = (match v (2 * i) with Value.Float f -> f | _ -> nan);
        o_lim = 0.0;
        o_purchases = (match v ((2 * i) + 1) with Value.Int p -> p | _ -> -1);
        o_streaks = 0;
        o_bigs = 0;
        o_settles = 0;
      })

(* ---------------- frame codec ---------------- *)


(* Encode and decode cost per request+reply pair, over the workload's own
   recorded requests and replies: (encode ns, decode ns). Decoding
   includes reassembly through Proto.Chunks. *)
let codec_ns pairs =
  let n = Array.length pairs in
  if n = 0 then (0.0, 0.0)
  else begin
    let enc () =
      Array.mapi
        (fun i (rq, rp) -> (P.encode_request ~sync:i ~stream:0 rq, P.encode_reply ~sync:i rp))
        pairs
    in
    let frames = enc () in
    let stream side = Bytes.concat Bytes.empty (Array.to_list (Array.map side frames)) in
    let rq_stream = stream fst and rp_stream = stream snd in
    let reassemble buf decode =
      let ch = P.Chunks.create () in
      let len = Bytes.length buf and piece = 65536 in
      let pos = ref 0 in
      while !pos < len do
        let k = min piece (len - !pos) in
        P.Chunks.feed ch buf !pos k;
        pos := !pos + k;
        let rec pull () =
          match P.Chunks.next ch with
          | Some body ->
              decode body;
              pull ()
          | None -> ()
        in
        pull ()
      done
    in
    let dec () =
      reassemble rq_stream (fun b -> ignore (P.decode_request b));
      reassemble rp_stream (fun b -> ignore (P.decode_reply b))
    in
    let time f =
      median
        (List.init 5 (fun _ ->
             let t0 = now_ns () in
             ignore (Sys.opaque_identity (f ()));
             float_of_int (now_ns () - t0) /. float_of_int n))
    in
    (time enc, time dec)
  end

(* Round trip of a Ping with one in flight: the reactor answers it itself,
   so this is the socket and reactor floor. p50 in µs. *)
let ping_rtt_us path ~n =
  let c = Ode_net.Client.connect (Server.Unix_sock path) in
  let s = Samples.create () in
  for _ = 1 to n do
    span s (fun () -> Ode_net.Client.ping c)
  done;
  Ode_net.Client.close c;
  p50 s

let sorted_of a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let p50_of a = pct (sorted_of a) 0.5

(* A driver tap keeping the first [n] request/reply pairs, and a reader
   for them. *)
let recorder n =
  let recorded = ref [] and k = ref 0 in
  ( (fun rq rp ->
      if !k < n then begin
        recorded := (rq, rp) :: !recorded;
        incr k
      end),
    fun () -> Array.of_list (List.rev !recorded) )

(* The per-layer values both wire workloads measure the same way: the frame
   codec over recorded pairs, the ping floor, the in-process lane's spans,
   the server and fleet probes around the timed phases. Needs the server
   still up. A span the lane never took (no such operation in the
   workload) is left out. *)
let wire_layers t ~path ~pairs ~lane:(ln, overhead) ~(opened : Wire.phase) ~p0 ~p1 =
  let encode_ns, decode_ns = codec_ns pairs in
  let nd = cdelta ~before:p0.server_counters ~after:p1.server_counters in
  let read_p50 = (Windows.lat opened.Wire.win 0).l_p50 in
  let waits = sorted_of ln.waits in
  let wait_p50 = pct waits 0.5 in
  [
    ("net.encode_ns", encode_ns);
    ("net.decode_ns", decode_ns);
    ("net.ping_rtt_us", ping_rtt_us path ~n:2000);
    ("net.frames_per_flush", ratio (nd "net.batched_frames") (nd "net.flushes"));
    ("net.residual_us", read_p50 -. (((encode_ns +. decode_ns) /. 1e3) +. wait_p50 +. p50_of ln.read_exec));
    ("parallel.dispatch_wait_p50_us", wait_p50);
    ("parallel.dispatch_wait_p99_us", pct waits 0.99);
    ("parallel.exec_self_us", p50_of ln.selfs);
    ("parallel.mailbox_hwm", float_of_int p1.hwm);
    ("core.get_field_us", p50_of ln.s_get);
    ("core.snapshot_get_us", p50_of ln.s_snap);
    ("core.invoke_us", p50_of ln.s_invoke);
    ("core.post_event_us", p50_of ln.s_post);
    ("core.commit_us", p50_of ln.s_commit);
    ("core.define_class_ms", define_ms t);
    ("loadgen.lag_p99_us", pct (Samples.sorted opened.Wire.lag) 0.99);
    ("trace.overhead_pct", overhead);
  ]
  |> List.filter (fun (_, v) -> Float.is_finite v)
