(* The QR-DTM benchmark: one seeded workload per invocation, QR-CN on a
   fixed deployment, one domain.

     qrbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]

   --trace 0 sets the workload up five times (every set-up must reach the
   same warmed-up state), runs the last one through a window of S times the
   workload's simulated ms per wall second, cut in 64 slices, drains and
   checks it, and prints the end-to-end metrics.  Wall times are scaled by
   the calibration loop run around every set-up block and slice.
   --trace 1 runs two episodes of half that window, one untraced and one
   traced (per-step layer attribution), which must simulate identically,
   then the layer drivers, and prints the per-layer metrics.  Either way
   the last line of stdout is one JSON object: {"correct", "attempted",
   "failed", "metrics"}.  README.md in this directory describes the
   workloads and the metric map. *)

let bank_params =
  { Benchmarks.Workload.default_params with objects = 1000; calls = 3; read_ratio = 0.5;
    key_skew = 0.5 }

let workloads =
  let base =
    {
      Episode.name = "";
      nodes = 13;
      batch_commit = false;
      benchmark = Benchmarks.Bank.benchmark;
      params = bank_params;
      loop = Closed 26;
      churn = false;
      window_per_second = 0.;
    }
  in
  [
    { base with name = "bank-seq"; window_per_second = 30_000. };
    {
      base with
      name = "bank-batch";
      nodes = 9;
      batch_commit = true;
      params = { bank_params with objects = 8; calls = 2; read_ratio = 0.1 };
      loop = Closed 24;
      window_per_second = 16_000.;
    };
    {
      base with
      name = "vacation-faults-open";
      benchmark = Benchmarks.Vacation.benchmark;
      params = { bank_params with objects = 5_000 };
      loop = Open { rate = 50.; cap = 4 };
      churn = true;
      window_per_second = 40_000.;
    };
  ]

let usage () =
  prerr_endline
    "usage: qrbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Episode.name) workloads));
  exit 2

let workload, seed, seconds, trace, spans_dir =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and spans_dir = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun w -> w.Episode.name = v) workloads with
      | Some w -> workload := Some w
      | None -> usage ());
      parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); parse rest
    | "--seconds" :: v :: rest ->
      let s = int_arg v in
      if s < 1 then usage ();
      seconds := Some s;
      parse rest
    | "--trace" :: v :: rest ->
      if v <> "0" && v <> "1" then usage ();
      trace := Some (v = "1");
      parse rest
    | "--spans-dir" :: v :: rest -> spans_dir := Some v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some n, Some s, Some t -> (w, n, Float.of_int s, t, !spans_dir)
  | _ -> usage ()

(* --- helpers ------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. Float.of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let per_commit (e : Episode.result) x = x /. Float.of_int (Stdlib.max 1 e.window_commits)

let verdict_string = function Ok () -> "ok" | Error m -> "FAILED: " ^ m

let correct = ref true

let check name = function
  | Ok () -> ()
  | Error _ as v ->
    correct := false;
    Printf.printf "  check %s: %s\n" name (verdict_string v)

let report_verdicts (e : Episode.result) =
  Printf.printf "verdicts %s seed=%d: %s\n" workload.name seed
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ verdict_string v) e.verdicts));
  List.iter (fun (k, v) -> check k v) e.verdicts;
  if e.attempted = 0 || Array.length e.latencies = 0 then
    check "load" (Error "no transaction attempted and committed in the window")

let peak_heap_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let emit ~(e : Episode.result) metrics =
  List.iter
    (fun (name, _, value) ->
      if not (Float.is_finite value) then
        check name (Error (Printf.sprintf "non-finite value %g" value)))
    metrics;
  let field (name, unit, value) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite value then value else 0.)
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct (Stdlib.max 1 e.attempted)
    (e.attempted - e.committed)
    (String.concat ", " (List.map field metrics))

let topology = Episode.topology workload

(* --- end-to-end run ------------------------------------------------------ *)

(* Slices of the window and set-ups per run.  The calibration loop runs
   between slices.  In ten runs of one seed, wall_commits_per_s spread 0.02
   (interquartile range over median) with 64 slices, where the unscaled
   rate spread 0.09; with 16 slices it spread 0.06 against 0.11. *)
let slices = 64
let setups = 5

let end_to_end () =
  (* The calibration loop runs before the set-ups and around every slice;
     each wall time is scaled by the mean of the two loops that bracket it. *)
  let before_setups = Calibrate.time () in
  let cals = ref [] in
  let pause () = cals := Calibrate.time () :: !cals in
  let e = Episode.run workload ~topology ~seed ~seconds ~slices ~setups ~pause in
  let cals = Array.of_list (List.rev !cals) in
  let scale a b = Calibrate.reference /. ((a +. b) /. 2.) in
  let setup_scale = scale before_setups cals.(0) in
  let scaled_wall =
    List.mapi (fun j (s : Episode.slice) -> s.wall_s *. scale cals.(j) cals.(j + 1)) e.slices
  in
  let slice_rates =
    List.map2 (fun (s : Episode.slice) w -> Float.of_int s.commits /. w) e.slices scaled_wall
  in
  report_verdicts e;
  let count name =
    Option.value ~default:0. (List.assoc_opt name e.counts)
  in
  let lat = e.latencies in
  let n = Array.length lat in
  let window_s = workload.window_per_second *. seconds /. 1000. in
  let aborts =
    count "core.executor.root_aborts_per_commit"
    +. count "core.executor.partial_aborts_per_commit"
  in
  let metrics =
    [
      ("setup_s", "s", median e.setup_s *. setup_scale);
      ( "wall_commits_per_s",
        "1/s",
        Float.of_int e.window_commits /. List.fold_left ( +. ) 0. scaled_wall );
      ("sim_commits_per_s", "1/s", Float.of_int e.window_commits /. window_s);
      ("sim_latency_p50_ms", "ms", percentile lat 50.);
      ("sim_latency_p99_ms", "ms", percentile lat 99.);
      ("msgs_per_commit", "count", count "sim.network.msgs_per_commit");
      ("aborts_per_commit", "count", aborts);
      ("minor_words_per_commit", "words", per_commit e e.minor_words);
      ("peak_heap_mb", "MiB", peak_heap_mb ());
      ( "committed_ratio",
        "ratio",
        Float.of_int e.committed /. Float.of_int (Stdlib.max 1 e.attempted) );
    ]
  in
  Printf.printf "workload %s seed=%d: %.0f simulated s window, %d commits\n" workload.name
    seed window_s e.window_commits;
  Printf.printf "  set-ups (raw wall s): %s; host speed x%.3f of reference\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") e.setup_s))
    setup_scale;
  let sorted = Array.of_list slice_rates in
  Array.sort Float.compare sorted;
  Printf.printf
    "  slices (commits per scaled wall s): min %.1f, median %.1f, max %.1f; unscaled window rate %.1f/s\n"
    sorted.(0) (median slice_rates) sorted.(Array.length sorted - 1)
    (Float.of_int e.window_commits /. e.window_wall_s);
  List.iter
    (fun (name, unit, value) ->
      let samples =
        if String.starts_with ~prefix:"sim_latency" name then Printf.sprintf " (n=%d)" n
        else if name = "setup_s" then Printf.sprintf " (median of %d set-ups)" setups
        else if name = "wall_commits_per_s" then
          Printf.sprintf " (%d slices, each host-scaled)" slices
        else ""
      in
      Printf.printf "  %-24s %14.4f %s%s\n" name value unit samples)
    metrics;
  emit ~e metrics

(* --- traced run ----------------------------------------------------------- *)

let unit_of name =
  let has sub =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    go 0
  in
  if has ".ns_per_" then "ns"
  else if has "words" then "words"
  else if has "_ms" then "ms"
  else if String.ends_with ~suffix:"_s" name then "s"
  else if has "share" || has "yield" || has "overhead" then "ratio"
  else "count"

let write_spans dir (sp : Episode.spans) =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" workload.name seed) in
  let oc = open_out path in
  Printf.fprintf oc "# one engine step per line: start_ns dur_ns layers\n";
  for i = 0 to sp.recorded - 1 do
    let labels =
      List.filteri (fun bit _ -> sp.masks.(i) land (1 lsl bit) <> 0)
        (Array.to_list Episode.layers)
    in
    Printf.fprintf oc "%d\t%d\t%s\n" sp.starts.(i) sp.durs.(i)
      (if labels = [] then "-" else String.concat "," labels)
  done;
  close_out oc;
  Printf.printf "spans: %d of %d steps written to %s\n" sp.recorded sp.steps path

let layered () =
  let started = Unix.gettimeofday () in
  Gc.compact ();
  (* Each of the two episodes runs half the window of an end-to-end run. *)
  let seconds = seconds /. 2. in
  let plain = Episode.run workload ~topology ~seed ~seconds ~slices in
  let traced = Episode.run ~traced:true workload ~topology ~seed ~seconds ~slices in
  report_verdicts plain;
  if traced.digest <> plain.digest then
    check "traced_identical" (Error "the traced episode simulated differently");
  let sp = Option.get traced.spans in
  let total_ns = Array.fold_left ( +. ) 0. sp.self_ns in
  let shares =
    Array.to_list
      (Array.mapi (fun i ns -> (Episode.layers.(i) ^ ".self_share", ns /. total_ns)) sp.self_ns)
  in
  let depth = int_of_float (sp.depth_sum /. Float.of_int (Stdlib.max 1 sp.steps)) in
  let spent = Unix.gettimeofday () -. started in
  let quota = Float.max 0.1 (Float.min 1.0 (((2. *. seconds) -. spent) /. 10.)) in
  let drivers = Drivers.all ~quota workload ~topology ~depth ~trace_tail:traced.tail in
  let declared =
    List.filter (fun (k, _) -> k <> "sim.network.msgs_per_commit") plain.counts
  in
  let metrics =
    List.map (fun (k, v) -> (k, unit_of k, v))
      (declared
      @ [
          ("gc.major_words_per_commit", per_commit plain plain.major_words);
          ("gc.promoted_words_per_commit", per_commit plain plain.promoted_words);
        ]
      @ drivers @ shares
      @ [
          ("obs.tracing_overhead", (traced.window_wall_s /. plain.window_wall_s) -. 1.);
          ("harness.calibration_s", Calibrate.time ());
        ])
  in
  Printf.printf "workload %s seed=%d traced: %d steps, mean queue depth %d, %.3f s traced vs %.3f s untraced\n"
    workload.name seed sp.steps depth traced.window_wall_s plain.window_wall_s;
  List.iter (fun (name, unit, value) -> Printf.printf "  %-46s %14.4f %s\n" name value unit) metrics;
  Option.iter (fun dir -> write_spans dir sp) spans_dir;
  emit ~e:plain metrics

let () = if trace then layered () else end_to_end ()
