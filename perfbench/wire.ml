(* The load generator's side of the wire: non-blocking connections that
   speak Ode_net.Proto frames, a select loop over them, and the closed- and
   open-loop drivers. One thread drives every connection, so the generator
   never uses more than one client thread. *)

open Common
module P = Ode_net.Proto

exception Closed

type conn = {
  fd : Unix.file_descr;
  chunks : P.Chunks.t;
  rbuf : Bytes.t;
  mutable out : Bytes.t;
  mutable out_pos : int;  (** bytes of [out] already written *)
  mutable out_len : int;
  mutable next_sync : int;
}

let pending c = c.out_len > c.out_pos

let append c frame =
  let n = Bytes.length frame in
  if c.out_len + n > Bytes.length c.out then begin
    let live = c.out_len - c.out_pos in
    let b = Bytes.create (max (2 * Bytes.length c.out) (live + n)) in
    Bytes.blit c.out c.out_pos b 0 live;
    c.out <- b;
    c.out_pos <- 0;
    c.out_len <- live
  end;
  Bytes.blit frame 0 c.out c.out_len n;
  c.out_len <- c.out_len + n

(* Queue a request; it goes out at the next [poll]. Returns its sync. *)
let send c ~stream req =
  let sync = c.next_sync in
  c.next_sync <- sync + 1;
  append c (P.encode_request ~sync ~stream req);
  sync

let write_some c =
  (try
     while pending c do
       c.out_pos <- c.out_pos + Unix.single_write c.fd c.out c.out_pos (c.out_len - c.out_pos)
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  if not (pending c) then begin
    c.out_pos <- 0;
    c.out_len <- 0
  end

let read_some c on_reply =
  let rec drain () =
    match P.Chunks.next c.chunks with
    | Some body ->
        let sync, reply = P.decode_reply body in
        on_reply sync reply;
        drain ()
    | None -> ()
  in
  let rec loop () =
    match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
    | 0 -> raise Closed
    | n ->
        P.Chunks.feed c.chunks c.rbuf 0 n;
        drain ();
        if n = Bytes.length c.rbuf then loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  loop ()

(* One step: write what the sockets take, wait up to [timeout] seconds for
   replies, and hand each one to [on_reply conn_index sync reply]. *)
let poll conns ~timeout on_reply =
  Array.iter write_some conns;
  let rd = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wr = List.filter_map (fun c -> if pending c then Some c.fd else None) (Array.to_list conns) in
  match Unix.select rd wr [] timeout with
  | r, w, _ ->
      Array.iteri
        (fun i c ->
          if List.mem c.fd w then write_some c;
          if List.mem c.fd r then read_some c (on_reply i))
        conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send [reqs] (connection index, stream, request) and wait for every
   reply; replies come back in request order. *)
let call_all ?(limit_s = 120.0) conns reqs =
  let n = Array.length reqs in
  let replies = Array.make n (P.Done P.P_unit) in
  let waiting = Array.map (fun _ -> Hashtbl.create 1024) conns in
  Array.iteri
    (fun i (ci, stream, req) -> Hashtbl.replace waiting.(ci) (send conns.(ci) ~stream req) i)
    reqs;
  let left = ref n in
  let give_up = now_ns () + int_of_float (limit_s *. 1e9) in
  while !left > 0 do
    if now_ns () > give_up then failwith "wire: no reply within the time limit";
    poll conns ~timeout:0.5 (fun ci sync reply ->
        match Hashtbl.find_opt waiting.(ci) sync with
        | Some i ->
            Hashtbl.remove waiting.(ci) sync;
            replies.(i) <- reply;
            decr left
        | None -> ())
  done;
  replies

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let c =
    {
      fd;
      chunks = P.Chunks.create ();
      rbuf = Bytes.create 65536;
      out = Bytes.create 65536;
      out_pos = 0;
      out_len = 0;
      next_sync = 1;
    }
  in
  (match call_all ~limit_s:10.0 [| c |] [| (0, 0, P.Hello { magic = P.magic; version = P.version }) |] with
  | [| P.Done (P.P_pong _) |] -> ()
  | _ -> failwith "wire: handshake refused");
  c

(* ---------------- load drivers ---------------- *)

(* A job is one unit of load: one request, or the frames of one
   interactive transaction on its stream. It completes when every frame
   has its reply; its latency runs from its due time to that moment. *)
type job = {
  frames : (int * P.request) list;  (** stream, request *)
  cls : int;  (** latency class: 0 read, 1 write, 2 untimed *)
  on_reply : int -> P.reply -> unit;  (** frame index, reply *)
}

type live = { j : job; due : int; mutable left : int }

type phase = {
  win : Windows.t;
      (** frames completed per sub-window; latency (µs from due time to
          completion) per class 0 read, 1 write *)
  lag : Samples.t;  (** open loop: µs the send ran behind its due time *)
  mutable frames : int;  (** frames completed, drain included *)
  mutable jobs_issued : int;
}

type driver = {
  conns : conn array;
  inflight : (int, live * int * P.request) Hashtbl.t array;
  mutable outstanding : int;
  tap : (P.request -> P.reply -> unit) option;  (** sees every frame's request and reply *)
}

let driver ?tap conns =
  { conns; inflight = Array.map (fun _ -> Hashtbl.create 4096) conns; outstanding = 0; tap }

let start d ph ci job ~due =
  let lj = { j = job; due; left = List.length job.frames } in
  List.iteri
    (fun idx (stream, req) ->
      let sync = send d.conns.(ci) ~stream req in
      Hashtbl.replace d.inflight.(ci) sync (lj, idx, req))
    job.frames;
  d.outstanding <- d.outstanding + 1;
  ph.jobs_issued <- ph.jobs_issued + 1

(* Deliver one reply; [on_complete ci] runs when its job finished. *)
let deliver d ph ci sync reply on_complete =
  match Hashtbl.find_opt d.inflight.(ci) sync with
  | None -> ()
  | Some (lj, idx, req) ->
      Hashtbl.remove d.inflight.(ci) sync;
      (match d.tap with Some f -> f req reply | None -> ());
      lj.j.on_reply idx reply;
      let now = now_ns () in
      ph.frames <- ph.frames + 1;
      Windows.count ph.win now;
      lj.left <- lj.left - 1;
      if lj.left = 0 then begin
        d.outstanding <- d.outstanding - 1;
        if lj.j.cls < 2 then Windows.add ph.win lj.j.cls ~due:lj.due (us_of_ns (now - lj.due));
        on_complete ci now
      end

let new_phase ~t0 secs =
  { win = Windows.create ~t0 ~secs ~across:Median ~classes:2; lag = Samples.create (); frames = 0; jobs_issued = 0 }

let drain_limit_ns = 30_000_000_000

(* Closed loop: every connection keeps [window] jobs in flight; a finished
   job is replaced at once until [secs] have passed, or until [count] jobs
   were issued. *)
let closed_loop ?(count = max_int) d ~window ~secs ~next =
  let t0 = now_ns () in
  let ph = new_phase ~t0 secs in
  let t_end = t0 + int_of_float (secs *. 1e9) in
  let issue ci ~due = if ph.jobs_issued < count then start d ph ci (next ci) ~due in
  Array.iteri
    (fun ci _ ->
      for _ = 1 to window do
        issue ci ~due:t0
      done)
    d.conns;
  while d.outstanding > 0 do
    if now_ns () > t_end + drain_limit_ns then failwith "wire: closed loop did not drain";
    poll d.conns ~timeout:0.05 (fun ci sync reply ->
        deliver d ph ci sync reply (fun ci now -> if now < t_end then issue ci ~due:now))
  done;
  ph

(* Open loop: job i is due at t0 + i/rate, sent on connection i mod n
   whatever is still in flight, and timed from its due time. *)
let open_loop d ~rate ~secs ~next =
  let n = Array.length d.conns in
  let t0 = now_ns () in
  let ph = new_phase ~t0 secs in
  let t_end = t0 + int_of_float (secs *. 1e9) in
  let due i = t0 + int_of_float (float_of_int i *. 1e9 /. rate) in
  let i = ref 0 in
  let finished = ref false in
  while not !finished do
    let now = now_ns () in
    while due !i <= now && due !i < t_end do
      let ci = !i mod n in
      Samples.add ph.lag (us_of_ns (now - due !i));
      start d ph ci (next ci) ~due:(due !i);
      incr i
    done;
    let next_due = due !i in
    if next_due >= t_end && d.outstanding = 0 then finished := true
    else begin
      if now > t_end + drain_limit_ns then failwith "wire: open loop did not drain";
      let timeout =
        if next_due < t_end then Float.max 0.0 (float_of_int (next_due - now) /. 1e9) else 0.05
      in
      poll d.conns ~timeout (fun ci sync reply -> deliver d ph ci sync reply (fun _ _ -> ()))
    end
  done;
  ph
