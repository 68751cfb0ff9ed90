(* Batched-fan-out byte-identity, kind-counter pre-sizing, and the GC
   allocation budget.

   The network's [multicast_batch] claims to be observationally invisible:
   one pooled engine event per quorum wave instead of one per destination,
   with identical accounting, RNG draw order, and heap (time, seq)
   positions.  These tests lock that equivalence in across the whole stack
   — experiment metrics, message counters, full trace streams, and chaos
   oracle verdicts — over many seeds, including seeds that exercise the
   fault model's drop/duplicate/spike draws (the paths where a perturbed
   draw order would first show up). *)

open Core

(* --- batched vs unbatched: experiment results --------------------------- *)

let bank_params =
  { Benchmarks.Workload.default_params with objects = 48; calls = 2; read_ratio = 0.5; key_skew = 0.4 }

(* A lossy-but-live fault plan: every [plan_send] branch (drop, spike,
   duplicate) draws on some message, so the batched path must interleave
   its fault-RNG consumption exactly as the eager path does. *)
let lossy =
  { Sim.Network.drop = 0.03; duplicate = 0.03; spike_prob = 0.02; spike_factor = 6. }

let run_bank ~seed ~batch_fanout ~faulty =
  let prepare cluster =
    if faulty then Sim.Network.set_faults (Cluster.network cluster) lossy
  in
  Harness.Experiment.run ~seed ~clients:8 ~warmup:200. ~duration:1_000.
    ~batch_fanout ~prepare
    ~config:(Config.default Config.Closed)
    ~benchmark:Benchmarks.Bank.benchmark ~params:bank_params ()

(* Polymorphic equality is exactly what we want here: the result record is
   ints, float aggregates computed from identical event sequences (bitwise
   equal when the runs are), strings and result values — no closures. *)
let check_result_identical ~seed ~faulty =
  let a = run_bank ~seed ~batch_fanout:true ~faulty in
  let b = run_bank ~seed ~batch_fanout:false ~faulty in
  Alcotest.(check bool) "batched run commits" true (a.Harness.Experiment.commits > 0);
  if a <> b then
    Alcotest.failf "seed %d (faulty=%b): batched and unbatched results differ:@.%a@.vs@.%a"
      seed faulty Harness.Experiment.pp_result a Harness.Experiment.pp_result b

let test_experiment_identity () =
  (* 5 fault-free seeds: the pure jitter/accounting path. *)
  List.iter (fun seed -> check_result_identical ~seed ~faulty:false) [ 100; 101; 102; 103; 104 ]

let test_experiment_identity_faulty () =
  (* 5 fault-model seeds: drop/duplicate/spike draws interleaved with the
     wave planning. *)
  List.iter (fun seed -> check_result_identical ~seed ~faulty:true) [ 200; 201; 202; 203; 204 ]

(* --- batched vs unbatched: full trace streams --------------------------- *)

(* Bitwise float identity (covers NaN and -0. too) — a tolerance would
   defeat the point of a byte-identity oracle. *)
let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let event_eq (a : Obs.Tracer.event) (b : Obs.Tracer.event) =
  float_bits_eq a.time b.time
  && a.ekind = b.ekind && a.node = b.node && a.txn = b.txn && a.oid = b.oid
  && a.a = b.a && a.b = b.b
  && float_bits_eq a.x b.x

let traced_run ~seed ~batch_fanout ~faulty =
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 18) () in
  let cluster =
    Cluster.create ~nodes:13 ~seed ~tracer ~batch_fanout (Config.default Config.Closed)
  in
  if faulty then Sim.Network.set_faults (Cluster.network cluster) lossy;
  let accounts =
    Array.init 24 (fun _ ->
        Cluster.alloc_object cluster
          ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
  in
  let rng = Util.Rng.create (seed * 13 + 5) in
  for k = 0 to 39 do
    let i = Util.Rng.int rng 24 in
    let j = (i + 1 + Util.Rng.int rng 23) mod 24 in
    Cluster.submit cluster ~node:(k mod 13)
      (fun () ->
        Benchmarks.Bank.transfer ~from_:accounts.(i) ~to_:accounts.(j) ~amount:1)
      ~on_done:(fun _ -> ())
  done;
  Cluster.drain cluster;
  (cluster, tracer)

let check_traces_identical ~seed ~faulty =
  let ca, ta = traced_run ~seed ~batch_fanout:true ~faulty in
  let cb, tb = traced_run ~seed ~batch_fanout:false ~faulty in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: messages sent" seed)
    (Cluster.messages_sent cb) (Cluster.messages_sent ca);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: messages dropped" seed)
    (Cluster.messages_dropped cb) (Cluster.messages_dropped ca);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: messages duplicated" seed)
    (Cluster.messages_duplicated cb) (Cluster.messages_duplicated ca);
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "seed %d: per-kind counters" seed)
    (Cluster.messages_by_kind cb) (Cluster.messages_by_kind ca);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: trace length" seed)
    (Obs.Tracer.length tb) (Obs.Tracer.length ta);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: no ring overflow" seed)
    0 (Obs.Tracer.dropped ta);
  let ea = Obs.Tracer.events ta and eb = Obs.Tracer.events tb in
  List.iteri
    (fun i (a, b) ->
      if not (event_eq a b) then
        Alcotest.failf "seed %d: trace event %d differs (batched kind=%s vs eager kind=%s)"
          seed i (Obs.Kind.name a.Obs.Tracer.ekind) (Obs.Kind.name b.Obs.Tracer.ekind))
    (List.combine ea eb)

let test_trace_identity () = check_traces_identical ~seed:31 ~faulty:false
let test_trace_identity_faulty () =
  List.iter (fun seed -> check_traces_identical ~seed ~faulty:true) [ 41; 42; 43 ]

(* --- batched vs unbatched: chaos verdicts ------------------------------- *)

let chaos_knobs =
  { Harness.Chaos.default_knobs with clients = 8; horizon = 3_000.; max_crashes = 1 }

let test_chaos_identity () =
  (* Chaos seeds are fault seeds by construction: crash/recover pairs,
     partitions, flaky links and suspicions drawn from the seed. *)
  List.iter
    (fun seed ->
      let a = Harness.Chaos.run_one chaos_knobs ~batch_fanout:true ~seed in
      let b = Harness.Chaos.run_one chaos_knobs ~batch_fanout:false ~seed in
      if a <> b then
        Alcotest.failf
          "seed %d: chaos verdicts differ: %d/%d commits, %d/%d aborts, %d/%d stalls"
          seed a.Harness.Chaos.commits b.Harness.Chaos.commits a.root_aborts
          b.root_aborts (List.length a.stalls) (List.length b.stalls))
    [ 7; 8; 9; 10; 11; 12 ]

(* --- batch commit on/off ------------------------------------------------ *)

(* Batch-commit mode changes the protocol (one quorum round per batch), so
   runs are NOT byte-identical to sequential ones — but the {e verdicts}
   must agree: over many chaos seeds, both modes pass the 1-copy oracle,
   conserve the bank balance, and stall nowhere.  22 seeds cover schedules
   with crashes, partitions, lossy links and suspicions. *)
let test_batch_mode_verdict_equivalence () =
  List.iter
    (fun seed ->
      let on = Harness.Chaos.run_one chaos_knobs ~batch_commit:true ~seed in
      let off = Harness.Chaos.run_one chaos_knobs ~batch_commit:false ~seed in
      let verdict (r : Harness.Chaos.result) =
        (Harness.Chaos.passed r, r.oracle, r.invariant)
      in
      if not (Harness.Chaos.passed on) then
        Alcotest.failf "seed %d: batch-mode chaos failed:@.%a" seed
          Harness.Chaos.pp_result on;
      if verdict on <> verdict off then
        Alcotest.failf "seed %d: batch on/off verdicts differ" seed)
    (List.init 22 (fun i -> 500 + i))

(* Same seed, batch mode on, run twice: the batch scheduler (cut timers,
   speculation, requeues) must be a pure function of the seed — the full
   result records compare equal, floats bitwise included. *)
let test_batch_mode_self_identity () =
  List.iter
    (fun seed ->
      let a =
        Harness.Experiment.run ~seed ~clients:8 ~warmup:200. ~duration:1_000.
          ~batch_commit:true
          ~config:(Config.default Config.Flat)
          ~benchmark:Benchmarks.Bank.benchmark ~params:bank_params ()
      in
      let b =
        Harness.Experiment.run ~seed ~clients:8 ~warmup:200. ~duration:1_000.
          ~batch_commit:true
          ~config:(Config.default Config.Flat)
          ~benchmark:Benchmarks.Bank.benchmark ~params:bank_params ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: batch run commits" seed)
        true
        (a.Harness.Experiment.commits > 0);
      if a <> b then
        Alcotest.failf "seed %d: two batch-mode runs differ:@.%a@.vs@.%a" seed
          Harness.Experiment.pp_result a Harness.Experiment.pp_result b)
    [ 601; 602; 603 ]

(* --- kind-counter pre-sizing -------------------------------------------- *)

(* [Network.create] pre-sizes the per-kind counter array from the global
   [Obs.Kind] registry; a kind interned {e after} the network exists must
   grow the array on first use instead of faulting past its end. *)
let test_kind_interned_after_create () =
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.create ~seed:3 ~nodes:3 () in
  let network = Sim.Network.create ~engine ~topology () in
  let got = ref [] in
  for node = 0 to 2 do
    Sim.Network.set_handler network ~node (fun ~src:_ msg -> got := msg :: !got)
  done;
  let late = Sim.Network.Kind.intern "late-interned-kind" in
  Sim.Network.send network ~kind:late ~src:0 ~dst:1 "hello";
  Sim.Network.multicast_batch network ~kind:late ~src:0 ~dsts:[ 1; 2 ] "wave";
  Sim.Engine.run engine;
  Alcotest.(check int) "all delivered" 3 (List.length !got);
  let count =
    match List.assoc_opt "late-interned-kind" (Sim.Network.messages_by_kind network) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "late kind counted" 3 count

(* --- allocation budget -------------------------------------------------- *)

(* Steady-state commit cost in minor-heap words on a 13-node closed-loop
   bank workload (26 clients, 64 accounts, one transfer per transaction).
   The pooled-envelope + flat-payload hot path measured ~7_100 minor
   words per committed transaction here; the budget is that figure plus
   the 20% allocation allowance, rounded up for cross-machine slack.  The
   relative gate is bench/gate.py: each BENCH_<workload>.json commits
   perfbench's minor and major words per commit, and a run more than 20%
   above them fails.  If this trips, something reintroduced per-event or
   per-message allocation — bisect with `python3 bench/gate.py`. *)
let minor_words_budget = 9_500.

let test_allocation_budget () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:11 ~with_oracle:false (Config.default Config.Closed)
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
      Cluster.submit cluster ~node
        (fun () ->
          Benchmarks.Bank.transfer ~from_:accounts.(i) ~to_:accounts.(j) ~amount:1)
        ~on_done:(fun _ -> client node r)
    end
  in
  for c = 0 to 25 do
    client (c mod 13) (Util.Rng.split rng)
  done;
  (* Warm the pools first so the budget reflects steady state, not the
     free-list and scratch-buffer growth of the first few waves. *)
  Cluster.run_for cluster 1_000.;
  let commits0 = Metrics.commits (Cluster.metrics cluster) in
  let minor0 = Gc.minor_words () in
  Cluster.run_for cluster 3_000.;
  let minor1 = Gc.minor_words () in
  stop := true;
  Cluster.drain cluster;
  let commits = Metrics.commits (Cluster.metrics cluster) - commits0 in
  Alcotest.(check bool) "measured some commits" true (commits > 50);
  let per_commit = (minor1 -. minor0) /. Float.of_int commits in
  if per_commit > minor_words_budget then
    Alcotest.failf "allocation regression: %.0f minor words/commit (budget %.0f)"
      per_commit minor_words_budget

let suite =
  [
    Alcotest.test_case "experiment: batched = unbatched (clean)" `Quick
      test_experiment_identity;
    Alcotest.test_case "experiment: batched = unbatched (faulty)" `Quick
      test_experiment_identity_faulty;
    Alcotest.test_case "traces: batched = unbatched (clean)" `Quick test_trace_identity;
    Alcotest.test_case "traces: batched = unbatched (faulty)" `Quick
      test_trace_identity_faulty;
    Alcotest.test_case "chaos: batched = unbatched verdicts" `Quick test_chaos_identity;
    Alcotest.test_case "chaos: batch-commit on/off verdicts agree" `Quick
      test_batch_mode_verdict_equivalence;
    Alcotest.test_case "batch-commit runs are self-identical" `Quick
      test_batch_mode_self_identity;
    Alcotest.test_case "kind interned after network create" `Quick
      test_kind_interned_after_create;
    Alcotest.test_case "minor words per commit within budget" `Quick
      test_allocation_budget;
  ]
