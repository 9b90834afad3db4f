(* odebench — one benchmark for the trigger database.

   odebench --workload NAME --seed N --seconds S --trace 0|1 [--nproc N]

   Runs one seeded workload, checks its outputs, and prints as the last
   line of standard output one JSON object: the correctness verdict, the
   operations attempted and failed, and the metrics — the end-to-end ones
   with --trace 0, the per-layer ones with --trace 1. --nproc tells it how
   many CPUs the host has before run.py pins the run to one. Exits non-zero
   without a result line on a usage error or a failure. *)

let workloads =
  [
    ("wire_cards", (Wire_cards.run_untraced, Wire_cards.run_traced, Wire_cards.bypassed));
    ( "trigger_embedded",
      ( (fun ~seed ~seconds -> Trigger_embedded.run_untraced ~seed ~seconds),
        (fun ~seed ~seconds:_ -> Trigger_embedded.run_traced ~seed),
        Trigger_embedded.bypassed ) );
    ("disk_ledger", (Disk_ledger.run_untraced, Disk_ledger.run_traced, Disk_ledger.bypassed));
    ( "disk_embedded",
      ( Disk_embedded.run_untraced,
        (fun ~seed ~seconds:_ -> Disk_embedded.run_traced ~seed),
        Disk_embedded.bypassed ) );
  ]

let usage () =
  prerr_endline
    "usage: odebench --workload (wire_cards|trigger_embedded|disk_ledger|disk_embedded) --seed N --seconds S \
     --trace 0|1 [--nproc N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
        parse rest
    | "--nproc" :: v :: rest ->
        Common.host_cpus := (match int_of_string_opt v with Some n when n >= 1 -> n | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let untraced, traced, bypassed =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  let seed = !seed and seconds = !seconds in
  (* Never outlive the run limit, and never leave a server process behind. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Fleet.kill_all ();
         prerr_endline "odebench: time limit reached";
         exit 2));
  ignore (Unix.alarm 170);
  match
  if !trace = 0 then begin
    let o = untraced ~seed ~seconds in
    Common.print_table "end-to-end metrics" o.Common.e2e;
    Common.print_result ~correct:o.Common.correct ~attempted:o.Common.attempted
      ~failed:o.Common.failed o.Common.e2e
  end
  else begin
    let o = traced ~seed ~seconds in
    let is_bypassed name = List.exists (fun p -> String.starts_with ~prefix:p name) bypassed in
    let metrics =
      List.map
        (fun (name, unit_) ->
          Common.m name unit_ (Option.value (List.assoc_opt name o.Common.layers) ~default:0.0))
        Layers.spec
    in
    let missing =
      List.filter
        (fun (name, _) -> (not (List.mem_assoc name o.Common.layers)) && not (is_bypassed name))
        Layers.spec
    in
    List.iter (fun (name, _) -> Printf.eprintf "odebench: per-layer metric %s not measured\n" name) missing;
    Common.print_info "bypassed"
      [ ("layers", Common.json_obj (List.map (fun p -> (p, "true")) bypassed)) ];
    Common.print_table "per-layer metrics (traced run)" metrics;
    Common.print_result ~correct:(o.Common.correct && missing = []) ~attempted:o.Common.attempted
      ~failed:o.Common.failed metrics
  end
  with
  | () -> ()
  | exception e ->
      Fleet.kill_all ();
      Printf.eprintf "odebench: %s\n%!" (Printexc.to_string e);
      exit 1
