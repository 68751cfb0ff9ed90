(* Benchmark harness: the measurements that neither the committed
   benchmark (perfbench/, BENCHMARK.json) nor the test suite makes.

   1. Default: the ablation sweeps DESIGN.md calls out, at quick scale.
   2. `overhead`: the lifecycle tracer's cost on the simulator hot path.
      Alternated untraced and traced runs of a closed-loop bank workload;
      exits 1 if the median untraced events/s exceeds the median traced
      events/s by more than 15%.

   Run with: dune exec bench/main.exe -- [overhead] *)

open Core

let overhead_mode =
  match Sys.argv with
  | [| _ |] -> false
  | [| _; "overhead" |] -> true
  | _ ->
    prerr_endline "usage: bench/main.exe [overhead]";
    exit 2

let scale = Harness.Figures.quick

let print_series series = print_string (Harness.Report.render series)

(* --- Ablations --------------------------------------------------------- *)

let run_mode ?(config_of = Config.default) mode =
  Harness.Experiment.run ~seed:7 ~clients:scale.clients ~warmup:scale.warmup
    ~duration:scale.duration ~config:(config_of mode)
    ~benchmark:Benchmarks.Bank.benchmark
    ~params:{ Benchmarks.Workload.default_params with objects = 96; calls = 3; read_ratio = 0.5; key_skew = 0.5 }
    ()

let ablation_rqv_for_flat () =
  let base = run_mode Config.Flat in
  let with_rqv = run_mode ~config_of:(fun m -> Config.make ~rqv_for_flat:true m) Config.Flat in
  print_series
    {
      Harness.Report.title = "Ablation: incremental validation (Rqv) for flat transactions";
      x_label = "variant";
      columns = [ "throughput"; "messages"; "root aborts" ];
      rows =
        [
          ( "flat (paper QR)",
            [ base.throughput; Float.of_int base.messages; Float.of_int base.root_aborts ] );
          ( "flat + Rqv",
            [
              with_rqv.throughput;
              Float.of_int with_rqv.messages;
              Float.of_int with_rqv.root_aborts;
            ] );
        ];
      notes =
        [ "Rqv gives flat transactions early aborts and local read-only commits" ];
    }

let ablation_checkpoint_tuning () =
  let point ~threshold ~overhead =
    let result =
      run_mode
        ~config_of:(fun m ->
          Config.make ~checkpoint_threshold:threshold ~checkpoint_overhead:overhead m)
        Config.Checkpoint
    in
    [ result.Harness.Experiment.throughput; Float.of_int result.partial_aborts ]
  in
  print_series
    {
      Harness.Report.title =
        "Ablation: checkpoint granularity and creation cost (QR-CHK, bank)";
      x_label = "threshold/overhead";
      columns = [ "throughput"; "partial aborts" ];
      rows =
        [
          ("1 obj / 0.5 ms", point ~threshold:1 ~overhead:0.5);
          ("1 obj / 2 ms", point ~threshold:1 ~overhead:2.0);
          ("1 obj / 8 ms (JVM-like)", point ~threshold:1 ~overhead:8.0);
          ("2 objs / 2 ms", point ~threshold:2 ~overhead:2.0);
          ("4 objs / 2 ms", point ~threshold:4 ~overhead:2.0);
        ];
      notes =
        [
          "the paper's QR-CHK used fine-grained (per-object) checkpoints on a \
           continuation-patched JVM; higher creation costs push QR-CHK below flat";
        ];
    }

let ablation_read_level () =
  let point level =
    let result =
      Harness.Experiment.run ~seed:9 ~read_level:level ~clients:scale.clients
        ~warmup:scale.warmup ~duration:scale.duration
        ~config:(Config.default Config.Closed) ~benchmark:Benchmarks.Bank.benchmark
        ~params:
          { Benchmarks.Workload.default_params with objects = 96; calls = 3; read_ratio = 0.5; key_skew = 0.5 }
        ()
    in
    [ result.Harness.Experiment.throughput; Float.of_int result.messages ]
  in
  print_series
    {
      Harness.Report.title = "Ablation: read-quorum depth (tree level)";
      x_label = "read level";
      columns = [ "throughput"; "messages" ];
      rows = [ ("0 (root)", point 0); ("1 (paper)", point 1); ("2", point 2) ];
      notes = [ "deeper read quorums spread load but cost more messages per read" ];
    }

let ablation_commit_lock_retries () =
  let point retries =
    let result =
      run_mode ~config_of:(fun m -> Config.make ~commit_lock_retries:retries m) Config.Closed
    in
    [ result.Harness.Experiment.throughput; Float.of_int result.root_aborts ]
  in
  print_series
    {
      Harness.Report.title = "Ablation: commit retry on lock conflict (QR-CN, bank)";
      x_label = "lock retries";
      columns = [ "throughput"; "root aborts" ];
      rows = [ ("0 (paper)", point 0); ("1", point 1); ("3", point 3) ];
      notes = [ "a lock conflict often clears within one 2PC round trip" ];
    }

(* Extension: open nesting vs closed nesting on a transfer workload.  Open
   sub-transactions commit (and release their conflict window) immediately,
   at the price of an extra 2PC round per call and compensations on abort. *)
let ablation_open_nesting () =
  let accounts_of cluster =
    Array.init 48 (fun _ ->
        Cluster.alloc_object cluster
          ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
  in
  let run ~open_mode =
    let cluster = Cluster.create ~nodes:13 ~seed:41 (Config.default Config.Closed) in
    let accounts = accounts_of cluster in
    let rng = Util.Rng.create 17 in
    let gen_call r =
      let i = Util.Rng.int r 48 in
      let j = (i + 1 + Util.Rng.int r 47) mod 48 in
      let a = accounts.(i) and b = accounts.(j) in
      let amount = 1 + Util.Rng.int r 10 in
      if open_mode then
        Txn.open_nested
          ~body:(fun () -> Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount)
          ~compensate:(fun _ -> Benchmarks.Bank.transfer ~from_:b ~to_:a ~amount)
      else Txn.nested (fun () -> Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount)
    in
    let stop = ref false in
    let rec client node r =
      if not !stop then begin
        let calls = List.init 3 (fun _ -> gen_call r) in
        let program () = Benchmarks.Workload.seq calls in
        Cluster.submit cluster ~node program ~on_done:(fun _ -> client node r)
      end
    in
    for c = 0 to scale.clients - 1 do
      client (c mod 13) (Util.Rng.split rng)
    done;
    Cluster.run_for cluster scale.warmup;
    Cluster.reset_counters cluster;
    Cluster.run_for cluster scale.duration;
    let metrics = Cluster.metrics cluster in
    let commits = Metrics.commits metrics - Metrics.compensations metrics in
    let row =
      [
        Float.of_int commits /. (scale.duration /. 1000.);
        Float.of_int (Cluster.messages_sent cluster);
        Float.of_int (Metrics.root_aborts metrics);
        Float.of_int (Metrics.compensations metrics);
      ]
    in
    stop := true;
    Cluster.drain cluster;
    let total = Benchmarks.Bank.total_balance cluster ~accounts in
    if total <> 48 * Benchmarks.Bank.initial_balance then
      Printf.printf "WARNING: open-nesting ablation lost money (%d)\n" total;
    row
  in
  print_series
    {
      Harness.Report.title = "Extension: open nesting vs closed nesting (bank transfers)";
      x_label = "model";
      columns = [ "throughput"; "messages"; "root aborts"; "compensations" ];
      rows = [ ("closed", run ~open_mode:false); ("open", run ~open_mode:true) ];
      notes =
        [
          "open sub-transactions commit early (shorter conflict windows) but pay a 2PC \
           per call and compensations on parent aborts";
        ];
    }

let ablations () =
  print_endline "==================================================================";
  print_endline "Ablations (design choices called out in DESIGN.md)";
  print_endline "==================================================================";
  ablation_rqv_for_flat ();
  ablation_checkpoint_tuning ();
  ablation_read_level ();
  ablation_commit_lock_retries ();
  ablation_open_nesting ()

(* --- tracer overhead (`overhead` mode) ------------------------------- *)

let max_traced_overhead_pct = 15.
let overhead_pairs = 5

(* Raw simulator event throughput: drive a closed-loop bank workload for a
   fixed stretch of virtual time and divide dispatched events by wall
   seconds, with [tracer] attached (the null tracer by default).  Each run
   starts from a fully collected heap, so earlier runs' tracers (8 arrays
   of 2^20 cells each) do not slow the runs after them. *)
let events_per_second ?(tracer = Obs.Tracer.null) () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:11 ~with_oracle:false ~tracer
      (Config.default Config.Closed)
  in
  let accounts =
    Array.init 64 (fun _ ->
        Cluster.alloc_object cluster
          ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
  in
  let rng = Util.Rng.create 23 in
  let stop = ref false in
  let rec client node r =
    if not !stop then begin
      let i = Util.Rng.int r 64 in
      let j = (i + 1 + Util.Rng.int r 63) mod 64 in
      let program () =
        Benchmarks.Bank.transfer ~from_:accounts.(i) ~to_:accounts.(j) ~amount:1
      in
      Cluster.submit cluster ~node program ~on_done:(fun _ -> client node r)
    end
  in
  for c = 0 to 25 do
    client (c mod 13) (Util.Rng.split rng)
  done;
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  Cluster.run_for cluster 10_000.;
  let wall = Unix.gettimeofday () -. t0 in
  stop := true;
  Cluster.drain cluster;
  Float.of_int (Sim.Engine.events_processed (Cluster.engine cluster)) /. wall

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Pair i runs untraced first when i is even and traced first when i is
   odd, so slow drift of the host's load falls on both sides alike. *)
let overhead () =
  let untraced = ref [] and traced = ref [] in
  let run_untraced () = untraced := events_per_second () :: !untraced in
  let run_traced () =
    traced := events_per_second ~tracer:(Obs.Tracer.create ()) () :: !traced
  in
  for i = 0 to overhead_pairs - 1 do
    if i mod 2 = 0 then (run_untraced (); run_traced ())
    else (run_traced (); run_untraced ())
  done;
  let u = median !untraced and t = median !traced in
  let pct = ((u /. t) -. 1.) *. 100. in
  Printf.printf
    "tracer overhead: %.0f events/s untraced, %.0f traced (medians of %d \
     alternated pairs): %.2f%% (limit %.0f%%)\n"
    u t overhead_pairs pct max_traced_overhead_pct;
  if pct > max_traced_overhead_pct then begin
    prerr_endline "FAIL: tracing overhead exceeds its limit";
    exit 1
  end

let () = if overhead_mode then overhead () else ablations ()
