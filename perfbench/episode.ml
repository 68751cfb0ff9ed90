(* One episode of a workload: build the fixed deployment, warm up, measure a
   window of fixed simulated length, drain, and check the result.

   All load comes from here, derived from the workload seed: closed-loop
   clients or Poisson arrivals, submitted through [Cluster.submit], each
   transaction timed from outside in simulated time (from when it was due
   to its [on_done]).  The program under test sees only the generated
   transactions. *)

open Core

type loop =
  | Closed of int  (** clients, spread round-robin over the nodes *)
  | Open of { rate : float; cap : int }
      (** Poisson arrivals per simulated second; admission cap per node *)

type workload = {
  name : string;
  nodes : int;
  batch_commit : bool;
  benchmark : Benchmarks.Workload.benchmark;
  params : Benchmarks.Workload.params;
  loop : loop;
  churn : bool;
      (** repeated crash+recover, 1% loss and false suspicion; the tracer
          runs with the online checker attached *)
  window_per_second : float;
      (** simulated ms of window per requested wall second: sized so the
          window takes about two thirds of the run on a shared 2-vCPU Xeon
          virtual machine *)
}

(* The deployment is a constant: the workload seed must not redraw the
   latency matrix, or run-to-run spread measures the topology, not the
   protocol. *)
let topology_seed = 2013

let topology w = Sim.Topology.create ~seed:topology_seed ~nodes:w.nodes ()

(* Simulated ms of warm-up before the window. *)
let warmup = 2_000.

(* Requests attempted in the window may finish this long after it; later
   ones count as failed. *)
let grace = 20_000.

(* Churn schedule (simulated ms, relative to each cycle start). *)
let churn_period = 10_000.
let crash_victim = 7 (* a non-root replica: node 0 is the tree root *)
let suspect_victim = 4

(* --- trace labels -------------------------------------------------------- *)

let layers =
  [| "sim.engine"; "sim.network"; "sim.rpc"; "core.executor"; "core.server"; "obs";
     "harness" |]

let obs_layer = 5
let harness_layer = 6

(* Which layer emits each trace kind (see Obs.Sem).  Replica-side kinds
   (leases, status rounds) and the membership machinery's [view.*] kinds,
   which no workload triggers, are filed under core.server. *)
let layer_of_kind name =
  let has p = String.starts_with ~prefix:p name in
  if has "net." then 1
  else if has "rpc." || name = "epoch.fence" then 2
  else if
    List.exists has
      [ "txn."; "scope."; "read.send"; "widen."; "commit.send"; "vote.recv";
        "deadline."; "spec."; "batch."; "xshard." ]
  then 3
  else if
    List.exists has
      [ "rqv."; "vote"; "apply"; "release"; "lease."; "status."; "presumed.";
        "rescue"; "sync."; "view." ]
  then 4
  else 0

type spans = {
  self_ns : float array;  (** per layer, over the window *)
  mutable steps : int;
  mutable depth_sum : float;  (** engine queue depth summed over steps *)
  starts : int array;  (** ns since the window opened *)
  durs : int array;
  masks : int array;  (** bit i set: the step emitted a kind of layer i *)
  mutable recorded : int;
}

let max_spans = 1 lsl 18

let clock () = Int64.to_int (Monotonic_clock.now ())

(* --- results ------------------------------------------------------------- *)

type slice = { commits : int; wall_s : float }

type result = {
  setup_s : float list;  (** wall time of each set-up, in order *)
  slices : slice list;  (** the window, cut in equal simulated slices *)
  window_wall_s : float;
  attempted : int;  (** transactions due in the window *)
  committed : int;  (** of those, committed before the grace deadline *)
  window_commits : int;  (** commits completed inside the window *)
  latencies : float array;  (** sorted, ms, of the committed attempted *)
  events : int;  (** engine events in the window *)
  minor_words : float;
  major_words : float;
  promoted_words : float;
  counts : (string * float) list;  (** per-layer protocol counts *)
  verdicts : (string * (unit, string) Stdlib.result) list;
  digest : string;  (** of every simulated output above *)
  spans : spans option;
  tail : Obs.Tracer.event list;  (** the tracer ring at exit, if any *)
}

let per a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

let ratio a b = if a + b = 0 then 0. else Float.of_int a /. Float.of_int (a + b)

let message_kinds =
  [ "read_req"; "commit_req"; "commit_apply"; "release"; "batch_commit_req";
    "status_req"; "sync_req" ]
(* Protocol counts at window close, per commit completed in the window. *)
let counts_at cluster ~commits ~events ~online =
  let m = Cluster.metrics cluster in
  let pc n = per n commits in
  let by_kind = Cluster.messages_by_kind cluster in
  let kind k = Option.value ~default:0 (List.assoc_opt k by_kind) in
  let recovery =
    let s = Metrics.recovery_time_stats m in
    if Util.Stats.count s = 0 then 0. else Util.Stats.percentile s 50.
  in
  ("sim.network.msgs_per_commit", pc (Cluster.messages_sent cluster))
  :: List.map (fun k -> ("sim.network.msgs_per_commit." ^ k, pc (kind k))) message_kinds
  @ [
      ("sim.engine.events_per_commit", pc events);
      ("core.executor.remote_reads_per_commit", pc (Metrics.remote_reads m));
      ("core.executor.local_reads_per_commit", pc (Metrics.local_reads m));
      ("core.executor.root_aborts_per_commit", pc (Metrics.root_aborts m));
      ("core.executor.partial_aborts_per_commit", pc (Metrics.partial_aborts m));
      ("core.executor.commit_yield", ratio (Metrics.commits m) (Metrics.root_aborts m));
      ("core.executor.batch.rounds_per_commit", pc (Metrics.batches m));
      ("core.executor.batch.occupancy_p50", Metrics.batch_occupancy_percentile m 50.);
      ("core.executor.batch.spec_reads_per_commit", pc (Metrics.speculative_reads m));
      ("core.executor.batch.spec_aborts_per_commit", pc (Metrics.speculation_aborts m));
      ("core.executor.quorum_retries_per_commit", pc (Metrics.quorum_retries m));
      ("core.cluster.recovery_ms_p50", recovery);
      ("core.cluster.syncs", Float.of_int (Metrics.syncs m));
      ("core.cluster.view_changes", Float.of_int (Metrics.view_changes m));
      ("store.replica.lease_expirations", Float.of_int (Metrics.lease_expirations m));
      ("store.replica.presumed_aborts", Float.of_int (Metrics.presumed_aborts m));
      ("store.replica.rescued_commits", Float.of_int (Metrics.status_rescued_commits m));
      ("sim.rpc.giveups", Float.of_int (Cluster.retransmit_exhausted cluster));
      ("sim.network.dropped_per_commit", pc (Cluster.messages_dropped cluster));
    ]
  @
  match online with
  | None -> [ ("obs.online.events_per_commit", 0.); ("obs.online.peak_tracked", 0.) ]
  | Some (seen, ck) ->
    [
      ("obs.online.events_per_commit", pc (Obs.Online.events_seen ck - seen));
      ("obs.online.peak_tracked", Float.of_int (Obs.Online.peak_tracked ck));
    ]

let digest_of r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %d\n" r.attempted r.committed r.window_commits r.events;
  List.iter (fun s -> Printf.bprintf b "%d " s.commits) r.slices;
  Array.iter (fun l -> Printf.bprintf b "%h " l) r.latencies;
  List.iter (fun (k, v) -> Printf.bprintf b "\n%s %h" k v) r.counts;
  List.iter
    (fun (k, v) ->
      Printf.bprintf b "\n%s %s" k (match v with Ok () -> "ok" | Error m -> m))
    r.verdicts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- one episode --------------------------------------------------------- *)

(* Builds the cluster, starts the load and runs the warm-up.  Returns the
   set-up wall time, a fingerprint of the warmed-up state, and the rest of
   the episode, which measures [slices] equal slices of the window, calling
   [pause] before each slice and after the last, outside the timing. *)
let prepare ~traced w ~topology ~seed ~window ~slices =
  let wall0 = Unix.gettimeofday () in
  let online = if w.churn then Some (Obs.Online.create ()) else None in
  let tracer =
    if traced || w.churn then Obs.Tracer.create ~capacity:(1 lsl 12) ()
    else Obs.Tracer.null
  in
  let cluster =
    Cluster.create ~nodes:w.nodes ~seed ~topology ~tracer
      ~batch_commit:w.batch_commit (Config.default Config.Closed)
  in
  let instance = w.benchmark.setup cluster w.params in
  let engine = Cluster.engine cluster in
  let net = Cluster.network cluster in
  let now () = Sim.Engine.now engine in
  (* Traced runs: a counting sink labels each engine step with the layers
     whose kinds it emitted, chaining to the online checker when the
     workload has one; time spent in the checker and the generator is
     charged to obs and harness. *)
  let mask = ref 0 and obs_ns = ref 0 and harness_ns = ref 0 in
  (if traced then begin
     let bits =
       Array.init (Obs.Kind.registered ()) (fun k ->
           1 lsl layer_of_kind (Obs.Kind.name k))
     in
     let nbits = Array.length bits in
     Obs.Tracer.set_sink tracer (fun ~time ~kind ~node ~txn ~oid ~a ~b ~x ->
         if kind < nbits then mask := !mask lor Array.unsafe_get bits kind;
         match online with
         | None -> ()
         | Some ck ->
           let t0 = clock () in
           Obs.Online.feed8 ck ~time ~kind ~node ~txn ~oid ~a ~b ~x;
           obs_ns := !obs_ns + (clock () - t0))
   end
   else Option.iter (fun ck -> Obs.Online.attach ck tracer) online);
  let generate rng =
    if traced then begin
      let t0 = clock () in
      let p = instance.generate rng in
      harness_ns := !harness_ns + (clock () - t0);
      p
    end
    else instance.generate rng
  in
  let window_start = warmup and window_end = warmup +. window in
  let deadline = window_end +. grace in
  let in_window t = t >= window_start && t < window_end in
  let attempted = ref 0 and committed = ref 0 and window_commits = ref 0 in
  let lat = ref (Array.make 1024 0.) and n_lat = ref 0 in
  let finish ~due outcome =
    match outcome with
    | Executor.Failed _ -> ()
    | Executor.Committed _ ->
      let t = now () in
      if in_window t then incr window_commits;
      if in_window due && t <= deadline then begin
        incr committed;
        if !n_lat = Array.length !lat then begin
          let grown = Array.make (2 * !n_lat) 0. in
          Array.blit !lat 0 grown 0 !n_lat;
          lat := grown
        end;
        !lat.(!n_lat) <- t -. due;
        incr n_lat
      end
  in
  (* A request never goes to a coordinator that is down or has left the
     view: it goes to the next live member up, wrapping. *)
  let live n = Cluster.is_member cluster n && not (Sim.Network.is_failed net n) in
  let route home =
    if live home then home
    else
      let up = List.filter live (Cluster.members cluster) in
      match List.find_opt (fun n -> n > home) up with
      | Some n -> n
      | None -> ( match up with n :: _ -> n | [] -> home)
  in
  let stop = ref false and admitting = ref true in
  let queues = Array.init w.nodes (fun _ -> Queue.create ()) in
  (* Requests running on each node, by admission ticket. *)
  let running = Array.init w.nodes (fun _ -> Hashtbl.create 8) in
  let tickets = ref 0 and resubmits = ref 0 in
  let client_rng = Util.Rng.create (seed * 7919) in
  let rec admit ~cap node ((due, program) as request) =
    if !admitting then
      if Hashtbl.length running.(node) < cap then begin
        incr tickets;
        let ticket = !tickets in
        Hashtbl.replace running.(node) ticket request;
        Cluster.submit cluster ~node program ~on_done:(fun outcome ->
            if Hashtbl.mem running.(node) ticket then begin
              Hashtbl.remove running.(node) ticket;
              finish ~due outcome;
              Option.iter (admit ~cap node) (Queue.take_opt queues.(node))
            end)
      end
      else Queue.push request queues.(node)
  in
  (* Roots hosted on a crashed node die with it and never report back.  Their
     clients resubmit them, in admission order, to the next live member, as
     the requests queued there are re-routed; latency still counts from when
     each request fell due. *)
  let node_lost ~cap n =
    let lost =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun ticket r acc -> (ticket, r) :: acc) running.(n) [])
    in
    Hashtbl.reset running.(n);
    resubmits := !resubmits + List.length lost;
    let waiting = Queue.copy queues.(n) in
    Queue.clear queues.(n);
    List.iter (fun (_, r) -> admit ~cap (route n) r) lost;
    Queue.iter (fun r -> admit ~cap (route n) r) waiting
  in
  let cap = match w.loop with Open { cap; _ } -> cap | Closed _ -> max_int in
  (match w.loop with
  | Closed clients ->
    let rec client home rng =
      if not !stop then begin
        let program = generate rng in
        let due = now () in
        if in_window due then incr attempted;
        Cluster.submit cluster ~node:(route home) program ~on_done:(fun outcome ->
            finish ~due outcome;
            client home rng)
      end
    in
    for c = 0 to clients - 1 do
      client (c mod w.nodes) (Util.Rng.split client_rng)
    done
  | Open { rate; _ } ->
    let rec pump () =
      let gap = Util.Rng.exponential client_rng ~mean:(1000. /. rate) in
      Sim.Engine.schedule_at engine ~time:(now () +. gap) (fun () ->
          if not !stop then begin
            let home = Util.Rng.int client_rng w.nodes in
            let program = generate (Util.Rng.split client_rng) in
            let due = now () in
            if in_window due then incr attempted;
            admit ~cap (route home) (due, program);
            pump ()
          end)
    in
    pump ());
  let set_drop p = Sim.Network.set_faults net { (Sim.Network.faults net) with drop = p } in
  if w.churn then begin
    set_drop 0.01;
    let rec cycle s =
      if s < window_end then begin
        Cluster.fail_node_at cluster ~at:s ~node:crash_victim;
        Sim.Engine.schedule_at engine ~time:s (fun () -> node_lost ~cap crash_victim);
        Cluster.recover_node_at cluster ~at:(s +. 3_000.) ~node:crash_victim;
        Cluster.suspect_node_at ~clear_after:500. cluster ~at:(s +. 6_000.)
          ~node:suspect_victim;
        cycle (s +. churn_period)
      end
    in
    cycle (window_start +. 1_000.)
  end;
  (* Phase markers: warm-up ends (counters zeroed) at 1, each slice of the
     window ends at 1 + j, the last one closing the window (counts
     snapshotted, new work stops); the grace deadline passes at
     [slices + 2]. *)
  let phase = ref 0 in
  let fingerprint = ref "" in
  let events0 = ref 0 and online0 = ref 0 in
  let counts = ref [] and events = ref 0 in
  Sim.Engine.schedule_at engine ~time:window_start (fun () ->
      fingerprint :=
        Printf.sprintf "%d events, %d messages, %d commits"
          (Sim.Engine.events_processed engine)
          (Cluster.messages_sent cluster)
          (Metrics.commits (Cluster.metrics cluster));
      Cluster.reset_counters cluster;
      resubmits := 0;
      events0 := Sim.Engine.events_processed engine;
      Option.iter (fun ck -> online0 := Obs.Online.events_seen ck) online;
      phase := 1);
  for j = 1 to slices - 1 do
    Sim.Engine.schedule_at engine
      ~time:(window_start +. (window *. Float.of_int j /. Float.of_int slices))
      (fun () -> incr phase)
  done;
  Sim.Engine.schedule_at engine ~time:window_end (fun () ->
      stop := true;
      if w.churn then set_drop 0.;
      events := Sim.Engine.events_processed engine - !events0;
      counts :=
        counts_at cluster ~commits:!window_commits ~events:!events
          ~online:(Option.map (fun ck -> (!online0, ck)) online)
        @ [ ("harness.resubmits", Float.of_int !resubmits) ];
      incr phase);
  Sim.Engine.schedule_at engine ~time:deadline (fun () ->
      admitting := false;
      incr phase);
  let step () =
    if not (Sim.Engine.step engine) then failwith "engine ran dry before a phase marker"
  in
  let run_to p = while !phase < p do step () done in
  run_to 1;
  let setup_s = Unix.gettimeofday () -. wall0 in
  let measure ~pause =
    let spans =
      if not traced then None
      else
        Some
          {
            self_ns = Array.make (Array.length layers) 0.;
            steps = 0;
            depth_sum = 0.;
            starts = Array.make max_spans 0;
            durs = Array.make max_spans 0;
            masks = Array.make max_spans 0;
            recorded = 0;
          }
    in
    let origin = clock () in
    let traced_run_to sp p =
      while !phase < p do
        mask := 0;
        obs_ns := 0;
        harness_ns := 0;
        sp.depth_sum <- sp.depth_sum +. Float.of_int (Sim.Engine.pending engine);
        let t0 = clock () in
        step ();
        let dt = clock () - t0 in
        let self = Float.of_int (dt - !obs_ns - !harness_ns) in
        let m = !mask land lnot ((1 lsl obs_layer) lor (1 lsl harness_layer)) in
        let m = if m = 0 then 1 else m in
        let labels = ref 0 in
        for i = 0 to Array.length layers - 1 do
          if m land (1 lsl i) <> 0 then incr labels
        done;
        for i = 0 to Array.length layers - 1 do
          if m land (1 lsl i) <> 0 then
            sp.self_ns.(i) <- sp.self_ns.(i) +. (self /. Float.of_int !labels)
        done;
        sp.self_ns.(obs_layer) <- sp.self_ns.(obs_layer) +. Float.of_int !obs_ns;
        sp.self_ns.(harness_layer) <- sp.self_ns.(harness_layer) +. Float.of_int !harness_ns;
        if sp.recorded < max_spans then begin
          sp.starts.(sp.recorded) <- t0 - origin;
          sp.durs.(sp.recorded) <- dt;
          sp.masks.(sp.recorded) <- !mask;
          sp.recorded <- sp.recorded + 1
        end;
        sp.steps <- sp.steps + 1
      done
    in
    let minor = ref 0. and major = ref 0. and promoted = ref 0. in
    let cuts =
      List.init slices (fun j ->
          pause ();
          let c0 = !window_commits in
          let stat0 = Gc.quick_stat () in
          let minor0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          (match spans with None -> run_to (j + 2) | Some sp -> traced_run_to sp (j + 2));
          let wall_s = Unix.gettimeofday () -. t0 in
          let minor1 = Gc.minor_words () in
          let stat1 = Gc.quick_stat () in
          minor := !minor +. (minor1 -. minor0);
          major := !major +. (stat1.Gc.major_words -. stat0.Gc.major_words);
          promoted := !promoted +. (stat1.Gc.promoted_words -. stat0.Gc.promoted_words);
          { commits = !window_commits - c0; wall_s })
    in
    pause ();
    run_to (slices + 2);
    Cluster.drain cluster;
    let verdicts =
      [ ("invariant", instance.check ()); ("oracle", Cluster.check_consistency cluster) ]
      @
      match online with
      | None -> []
      | Some ck -> (
        match Obs.Online.finish ck with
        | [] -> [ ("online", Ok ()) ]
        | v :: _ as vs ->
          [
            ( "online",
              Error
                (Printf.sprintf "%d violation(s), first: %s" (List.length vs)
                   (Obs.Online.pp_violation v)) );
          ])
    in
    let latencies = Array.sub !lat 0 !n_lat in
    Array.sort Float.compare latencies;
    {
      setup_s = [];
      slices = cuts;
      window_wall_s = List.fold_left (fun acc s -> acc +. s.wall_s) 0. cuts;
      attempted = !attempted;
      committed = !committed;
      window_commits = !window_commits;
      latencies;
      events = !events;
      minor_words = !minor;
      major_words = !major;
      promoted_words = !promoted;
      counts = !counts;
      verdicts;
      digest = "";
      spans;
      tail = (if traced then Obs.Tracer.events tracer else []);
    }
  in
  (setup_s, !fingerprint, measure)

(* One episode: [setups] set-ups of which only the last goes on to the
   window (every one must reach the same warmed-up state), then the
   window.  The window length is fixed by the workload and [seconds]. *)
let run ?(traced = false) ?(setups = 1) ?(pause = ignore) w ~topology ~seed ~seconds
    ~slices =
  let window = w.window_per_second *. seconds in
  let rec set_up i acc =
    Gc.compact ();
    let setup_s, fingerprint, measure = prepare ~traced w ~topology ~seed ~window ~slices in
    let acc = (setup_s, fingerprint) :: acc in
    if i < setups then set_up (i + 1) acc else (List.rev acc, measure)
  in
  let setups, measure = set_up 1 [] in
  let r = measure ~pause in
  let deterministic =
    match setups with
    | (_, fp) :: rest when List.exists (fun (_, fp') -> fp' <> fp) rest ->
      Error "set-ups with one seed reached different warmed-up states"
    | _ -> Ok ()
  in
  let r =
    {
      r with
      setup_s = List.map fst setups;
      verdicts = r.verdicts @ [ ("deterministic", deterministic) ];
    }
  in
  { r with digest = digest_of r }
