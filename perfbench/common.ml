(* Shared plumbing for the workloads: clock, latency samples, seeded key
   distributions, counter deltas, span recording and the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_between t0 t1 = float_of_int (t1 - t0) /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

(* ---------------- samples and percentiles ---------------- *)

(* A sample set of fixed capacity, allocated whole when created. Past
   [cap] samples each new one replaces a stored one at random (reservoir
   sampling), so the set stays a uniform sample of all it was given and
   never grows during a run: the harness's own memory does not rise with
   throughput, in the heap figure or anywhere else. *)
module Samples = struct
  type t = { a : float array; mutable n : int; mutable seen : int; rs : Random.State.t }

  let cap = 1 lsl 12
  let create () = { a = Array.make cap 0.0; n = 0; seen = 0; rs = Random.State.make [| 0x5A3 |] }

  let add t x =
    t.seen <- t.seen + 1;
    if t.n < cap then begin
      t.a.(t.n) <- x;
      t.n <- t.n + 1
    end
    else
      let j = Random.State.int t.rs t.seen in
      if j < cap then t.a.(j) <- x

  (* Samples given, stored or not. *)
  let count t = t.seen

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank percentile of a sorted array; nan when empty. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Latency summary of one class of operations: p50, p90 and p99 with the
   sample count behind them. *)
type lat = { l_n : int; l_p50 : float; l_p90 : float; l_p99 : float }

let lat_of s =
  let a = Samples.sorted s in
  { l_n = Samples.count s; l_p50 = pct a 0.50; l_p90 = pct a 0.90; l_p99 = pct a 0.99 }

(* How a phase's figure is drawn from its sub-windows' figures. *)
type across = Median | Mean

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A timed phase cut into equal sub-windows. Throughput and latency are
   reported from each sub-window's own figure (its completions per second,
   its percentiles), combined across sub-windows by [across]:
   - [Median] for an open loop, where one stall queues every request
     behind it and can throw one sub-window's percentiles far off: a short
     burst of interference moves one sub-window, not the figure;
   - [Mean] for a closed loop with one caller, where a stall delays only
     the transaction it hits. Slowdowns of the host come and go for
     seconds at a time; the mean moves in proportion to how much of the
     phase they cover, where a median jumps once they cover half of it. *)
module Windows = struct
  type t = { t0 : int; sub_ns : int; across : across; counts : int array; lat : Samples.t array array }

  let n = 64

  let create ~t0 ~secs ~across ~classes =
    {
      t0;
      sub_ns = int_of_float (secs *. 1e9 /. float_of_int n);
      across;
      counts = Array.make n 0;
      lat = Array.init classes (fun _ -> Array.init n (fun _ -> Samples.create ()));
    }

  let combine t xs = match t.across with Median -> median xs | Mean -> mean xs

  let index t time = (time - t.t0) / t.sub_ns

  (* One completion at [time]; ignored past the phase's end. *)
  let count t time =
    let i = index t time in
    if i >= 0 && i < n then t.counts.(i) <- t.counts.(i) + 1

  (* One latency sample of class [cls], filed by when it was due. *)
  let add t cls ~due v = t.lat.(cls).(max 0 (min (n - 1) (index t due))) |> fun s -> Samples.add s v

  let rate t =
    combine t (Array.to_list (Array.map (fun c -> float_of_int c /. (float_of_int t.sub_ns /. 1e9)) t.counts))

  (* Each sub-window's percentiles, combined across sub-windows, with the
     total sample count. *)
  let lat t cls =
    let per = Array.map lat_of t.lat.(cls) in
    let across f = combine t (Array.to_list (Array.map f per)) in
    {
      l_n = Array.fold_left (fun a l -> a + l.l_n) 0 per;
      l_p50 = across (fun l -> l.l_p50);
      l_p90 = across (fun l -> l.l_p90);
      l_p99 = across (fun l -> l.l_p99);
    }

  (* p99 of class [cls] over the whole phase. *)
  let whole_p99 t cls =
    let all = Samples.create () in
    Array.iter (fun s -> for i = 0 to s.Samples.n - 1 do Samples.add all s.Samples.a.(i) done) t.lat.(cls);
    (lat_of all).l_p99

  (* Per-sub-window p99 of class [cls], for the printed record. *)
  let p99s t cls = Array.to_list (Array.map (fun s -> (lat_of s).l_p99) t.lat.(cls))

  let first_half_rate t =
    float_of_int (Array.fold_left ( + ) 0 (Array.sub t.counts 0 (n / 2)))
    /. (float_of_int (t.sub_ns * (n / 2)) /. 1e9)

  let second_half_rate t =
    float_of_int (Array.fold_left ( + ) 0 (Array.sub t.counts (n / 2) (n - (n / 2))))
    /. (float_of_int (t.sub_ns * (n - (n / 2))) /. 1e9)
end

(* Run [f] [n] times from a compacted heap, [drop]ping each result but the
   last: the median duration in seconds, and the last result. *)
let timed_reps n ~drop f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    Option.iter drop !last;
    last := None;
    Gc.compact ();
    let t0 = now_ns () in
    let r = f () in
    times := secs_between t0 (now_ns ()) :: !times;
    last := Some r
  done;
  (median !times, Option.get !last)

(* ---------------- seeded inputs ---------------- *)

let rng ~seed ~lane = Random.State.make [| 0x0DEB; seed; lane |]

(* Zipfian ranks over [n] keys (theta < 1), mapped through a seeded
   permutation so the hot keys land on both shards. *)
module Zipf = struct
  type t = { cdf : float array; perm : int array }

  let create ~n ~theta rs =
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun x ->
          acc := !acc +. x;
          !acc /. total)
        w
    in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rs (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    { cdf; perm }

  let draw t rs =
    let u = Random.State.float rs 1.0 in
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    t.perm.(!lo)
end

(* Integer-valued amounts keep every balance sum exact in floating point,
   so the models can be compared with [=]. *)
let amount rs lo hi = float_of_int (lo + Random.State.int rs (hi - lo + 1))

(* ---------------- counters ---------------- *)

let cget l k = Option.value (List.assoc_opt k l) ~default:0

let cdelta ~before ~after k = cget after k - cget before k

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

type gc_mark = { g_minor : float; g_minor_gcs : int; g_major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { g_minor = s.Gc.minor_words; g_minor_gcs = s.Gc.minor_collections; g_major = s.Gc.major_collections }

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0
let heap_peak_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words
let heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.heap_words

(* ---------------- spans ---------------- *)

(* A traced run records spans from the benchmark's own code, around calls
   into each layer's public functions. [span s f] runs [f], adding its
   duration (µs) to [s]. *)
let span s f =
  let t0 = now_ns () in
  let r = f () in
  Samples.add s (us_of_ns (now_ns () - t0));
  r

let p50 s = pct (Samples.sorted s) 0.50

(* ---------------- output ---------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit_ value = { m_name = name; m_value = value; m_unit = unit_ }

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else begin
    Printf.eprintf "warning: non-finite metric value reported as 0\n%!";
    "0"
  end

let json_string s = Printf.sprintf "%S" s
let json_floats xs = "[" ^ String.concat ", " (List.map json_float xs) ^ "]"

(* A flat JSON object line of named fields (already rendered values). *)
let json_obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let print_info tag fields = print_endline (json_obj [ (tag, json_obj fields) ])

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun { m_name; m_value; m_unit } ->
        ( m_name,
          json_obj [ ("value", json_float m_value); ("unit", json_string m_unit) ] ))
      metrics
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj ms);
       ])

(* A per-layer table for the traced run: name, value, unit. *)
let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun { m_name; m_value; m_unit } -> Printf.printf "  %-34s %14.4f %s\n" m_name m_value m_unit)
    metrics

(* ---------------- correctness bookkeeping ---------------- *)

type check = { c_name : string; c_ok : bool; c_detail : string }

let check name ok detail = { c_name = name; c_ok = ok; c_detail = detail }

let print_checks checks =
  List.iter
    (fun c ->
      Printf.printf "check %-40s %s  %s\n" c.c_name (if c.c_ok then "ok" else "FAILED") c.c_detail)
    checks;
  List.for_all (fun c -> c.c_ok) checks

(* ---------------- provenance ---------------- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None

(* The commit of the checkout, read from .git without running git (the
   checkout may not be a repository at all). *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some rev -> rev
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  List.fold_left
                    (fun acc line ->
                      match String.split_on_char ' ' line with
                      | [ rev; name ] when name = r -> rev
                      | _ -> acc)
                    "unknown"
                    (String.split_on_char '\n' packed)))
      | _ -> head)

(* CPUs on the host: the launcher pins the run to one CPU and passes the
   count it had before (--nproc). *)
let host_cpus = ref 0
let nproc () = if !host_cpus > 0 then !host_cpus else Domain.recommended_domain_count ()

(* CPUs this process may run on, from the affinity list the kernel
   reports ("0", "0-1", "0,2-3"); 0 when it cannot be read. *)
let cpus_pinned () =
  let count list =
    List.fold_left
      (fun n range ->
        match List.map int_of_string_opt (String.split_on_char '-' (String.trim range)) with
        | [ Some a; Some b ] -> n + b - a + 1
        | [ Some _ ] -> n + 1
        | _ -> n)
      0 (String.split_on_char ',' list)
  in
  match read_file "/proc/self/status" with
  | None -> 0
  | Some status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "Cpus_allowed_list"; list ] -> count list
          | _ -> acc)
        0 (String.split_on_char '\n' status)

(* What one run of a workload hands back to the printer: the correctness
   verdict, operation counts, and either its end-to-end metrics (untraced
   run) or its per-layer values (traced run). *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : (string * float) list;
}
