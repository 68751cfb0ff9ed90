(* Tests for the discrete-event simulation substrate: engine ordering,
   topology metrics, network delivery/queueing/failures, RPC collection and
   timeouts, failure detection. *)

let test_engine_ordering () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.Engine.schedule engine ~delay:5. (note "c");
  Sim.Engine.schedule engine ~delay:1. (note "a");
  Sim.Engine.schedule engine ~delay:1. (note "b"); (* FIFO at equal time *)
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "time then FIFO order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 5. (Sim.Engine.now engine);
  Alcotest.(check int) "events processed" 3 (Sim.Engine.events_processed engine)

let test_engine_until () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule engine ~delay:10. (fun () -> incr fired);
  Sim.Engine.schedule engine ~delay:30. (fun () -> incr fired);
  Sim.Engine.run ~until:20. engine;
  Alcotest.(check int) "only the early event" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock set to limit" 20. (Sim.Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check int) "rest drained" 2 !fired

let test_engine_nested_schedule () =
  let engine = Sim.Engine.create () in
  let hits = ref [] in
  Sim.Engine.schedule engine ~delay:1. (fun () ->
      hits := Sim.Engine.now engine :: !hits;
      Sim.Engine.schedule engine ~delay:2. (fun () ->
          hits := Sim.Engine.now engine :: !hits));
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.; 3. ] (List.rev !hits)

(* One operation of the engine-ordering property.  Times are small
   integers so ties across the heap and the lanes are common; negative
   ones lie in the past and clamp to [now]. *)
type engine_op =
  | Delay of int (* schedule ~delay *)
  | At of int (* schedule_at *)
  | At_seq of int (* reserve_seq, then schedule_at_seq *)
  | Lane of int * int (* schedule_lane on lane [i], at now + offset *)
  | Step

let engine_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun d -> Delay d) (int_range (-3) 12));
        (2, map (fun d -> At d) (int_range (-3) 20));
        (2, map (fun d -> At_seq d) (int_range (-3) 20));
        (5, map2 (fun i d -> Lane (i, d)) (int_range 0 1) (int_range (-2) 12));
        (4, return Step);
      ])

let show_engine_op = function
  | Delay d -> Printf.sprintf "delay %d" d
  | At d -> Printf.sprintf "at %d" d
  | At_seq d -> Printf.sprintf "at_seq %d" d
  | Lane (i, d) -> Printf.sprintf "lane%d +%d" i d
  | Step -> "step"

(* Drive the engine and a reference model — a list sorted by (time, seq)
   — through the same mix; every dispatch must fire the model's least
   entry at its time, and the queues must drain in the same order.  The
   lanes see out-of-order appends (the heap fallback), equal-time ties
   with heap entries, and past times. *)
let engine_order_matches_sort =
  QCheck.Test.make ~name:"engine order matches (time, seq) sort" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_engine_op ops))
       QCheck.Gen.(list_size (int_range 0 80) engine_op_gen))
    (fun ops ->
      let engine = Sim.Engine.create () in
      let lanes = [| Sim.Engine.lane engine; Sim.Engine.lane engine |] in
      let fired = ref [] in
      let model = ref [] and next_seq = ref 0 and next_id = ref 0 in
      let add ~time ~seq =
        let id = !next_id in
        incr next_id;
        let time = Float.max time (Sim.Engine.now engine) in
        model := List.merge compare !model [ (time, seq, id) ];
        fun () -> fired := (Sim.Engine.now engine, id) :: !fired
      in
      let claim () =
        let seq = !next_seq in
        incr next_seq;
        seq
      in
      let expect_step () =
        match !model with
        | [] -> not (Sim.Engine.step engine)
        | (time, _, id) :: rest ->
          model := rest;
          Sim.Engine.step engine && !fired <> [] && List.hd !fired = (time, id)
      in
      let ok =
        List.for_all
          (fun op ->
            let now = Sim.Engine.now engine in
            (match op with
            | Delay d ->
              let delay = Float.of_int d in
              Sim.Engine.schedule engine ~delay
                (add ~time:(now +. Float.max 0. delay) ~seq:(claim ()))
            | At d ->
              let time = Float.of_int d in
              Sim.Engine.schedule_at engine ~time (add ~time ~seq:(claim ()))
            | At_seq d ->
              let time = Float.of_int d in
              let seq = Sim.Engine.reserve_seq engine in
              if seq <> claim () then QCheck.Test.fail_report "seq mismatch";
              Sim.Engine.schedule_at_seq engine ~time ~seq (add ~time ~seq)
            | Lane (i, d) ->
              let time = now +. Float.of_int d in
              Sim.Engine.schedule_lane lanes.(i) ~time (add ~time ~seq:(claim ()))
            | Step -> ());
            (match op with Step -> expect_step () | _ -> true)
            && Sim.Engine.pending engine = List.length !model)
          ops
      in
      let rest = List.map (fun (time, _, id) -> (time, id)) !model in
      fired := [];
      Sim.Engine.run engine;
      ok && List.rev !fired = rest && Sim.Engine.pending engine = 0)

let test_engine_lane_pending () =
  let engine = Sim.Engine.create () in
  let lane = Sim.Engine.lane engine in
  let nop () = () in
  Sim.Engine.schedule_lane lane ~time:10. nop;
  Sim.Engine.schedule_lane lane ~time:20. nop;
  Sim.Engine.schedule_lane lane ~time:15. nop; (* out of order: heap *)
  Sim.Engine.schedule engine ~delay:5. nop;
  Alcotest.(check int) "lane and heap entries" 4 (Sim.Engine.pending engine);
  ignore (Sim.Engine.step engine);
  ignore (Sim.Engine.step engine);
  Alcotest.(check (float 1e-9)) "lane head fired second" 10. (Sim.Engine.now engine);
  Alcotest.(check int) "two left" 2 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending engine);
  Alcotest.(check int) "all fired" 4 (Sim.Engine.events_processed engine)

let test_engine_until_lane () =
  let engine = Sim.Engine.create () in
  let lane = Sim.Engine.lane engine in
  let fired = ref [] in
  Sim.Engine.schedule_lane lane ~time:10. (fun () -> fired := 10 :: !fired);
  Sim.Engine.schedule_lane lane ~time:30. (fun () -> fired := 30 :: !fired);
  Sim.Engine.schedule engine ~delay:40. (fun () -> fired := 40 :: !fired);
  Sim.Engine.run ~until:20. engine;
  Alcotest.(check (list int)) "only the early lane entry" [ 10 ] !fired;
  Alcotest.(check (float 1e-9)) "clock set to limit" 20. (Sim.Engine.now engine);
  Alcotest.(check int) "two pending" 2 (Sim.Engine.pending engine);
  Sim.Engine.run ~until:35. engine;
  Alcotest.(check (list int)) "lane head within the limit" [ 30; 10 ] !fired;
  Alcotest.(check (float 1e-9)) "clock at the new limit" 35. (Sim.Engine.now engine)

(* Queue an action that is the only holder of a fresh block, and return a
   weak pointer to the block. *)
let[@inline never] schedule_watched schedule =
  let cell = ref 0 in
  let watch = Weak.create 1 in
  Weak.set watch 0 (Some cell);
  schedule (fun () -> incr cell);
  watch

(* A popped action must not stay reachable from the queue: not from the
   slot it fired from, not from a stale copy left behind when the heap's
   last entry moved up, and not from a freed slot of a grown heap while it
   waits to be reused.  A queued action stays reachable. *)
let test_engine_releases_actions () =
  let engine = Sim.Engine.create () in
  let lane = Sim.Engine.lane engine in
  let nop () = () in
  Sim.Engine.schedule engine ~delay:100. nop;
  Sim.Engine.schedule engine ~delay:1. nop;
  (* the heap's last entry when the one above pops *)
  let moved = schedule_watched (Sim.Engine.schedule engine ~delay:2.) in
  let laned = schedule_watched (Sim.Engine.schedule_lane lane ~time:3.) in
  Sim.Engine.schedule_lane lane ~time:100. nop;
  Sim.Engine.run ~until:50. engine;
  let drained = Sim.Engine.create () in
  let alone = schedule_watched (Sim.Engine.schedule_at drained ~time:1.) in
  Sim.Engine.run drained;
  let grown = Sim.Engine.create () in
  for i = 1 to 300 do
    Sim.Engine.schedule grown ~delay:(Float.of_int (1000 + i)) nop
  done;
  let early =
    List.init 20 (fun i ->
        (Printf.sprintf "grown heap %d" i,
         schedule_watched (Sim.Engine.schedule grown ~delay:(Float.of_int (i + 1)))))
  in
  let late = schedule_watched (Sim.Engine.schedule grown ~delay:5000.) in
  Sim.Engine.run ~until:100. grown;
  (* Reuse some, not all, of the freed slots. *)
  for i = 1 to 5 do
    Sim.Engine.schedule grown ~delay:(Float.of_int (200 + i)) nop
  done;
  Gc.full_major ();
  List.iter
    (fun (what, watch) ->
      Alcotest.(check bool) (what ^ " action collected") false (Weak.check watch 0))
    ([ ("moved heap", moved); ("lane", laned); ("last heap", alone) ] @ early);
  Alcotest.(check bool) "queued action kept" true (Weak.check late 0);
  Alcotest.(check int) "later entries still queued" 2 (Sim.Engine.pending engine);
  Alcotest.(check int) "grown heap entries still queued" 306 (Sim.Engine.pending grown)

(* A seeded run of every scheduling call, [step] and [run ~until] against
   a reference set ordered by (time, seq).  Push-heavy phases grow the
   heap past several doublings and drain-heavy ones empty it, so slots are
   freed and reused across growths.  Every fired action must be the
   model's least entry, and the clock and [pending] must agree after every
   operation. *)
module Model = Set.Make (struct
  type t = float * int * int (* time, seq, id *)

  let compare = compare
end)

let test_engine_model_seeded () =
  let rng = Util.Rng.create 11 in
  let engine = Sim.Engine.create () in
  let lanes = [| Sim.Engine.lane engine; Sim.Engine.lane engine |] in
  let model = ref Model.empty and clock = ref 0. in
  let next_seq = ref 0 and next_id = ref 0 and fired = ref [] in
  let add ~time ~seq =
    let id = !next_id in
    incr next_id;
    model := Model.add (Float.max time !clock, seq, id) !model;
    fun () -> fired := (Sim.Engine.now engine, id) :: !fired
  in
  let claim () =
    let seq = !next_seq in
    incr next_seq;
    seq
  in
  (* Pop the model's least entry, as the engine must have fired it. *)
  let expect_fired what =
    let ((time, _, id) as least) = Model.min_elt !model in
    model := Model.remove least !model;
    clock := time;
    match !fired with
    | [ got ] ->
      fired := [];
      Alcotest.(check (pair (float 0.) int)) (what ^ ": fired least") (time, id) got
    | _ -> Alcotest.failf "%s: expected one firing, got %d" what (List.length !fired)
  in
  let phases = [ (0.9, 400); (0.2, 400); (0.8, 1200); (0.1, 1500); (0.6, 1000) ] in
  List.iteri
    (fun p (push_share, ops) ->
      for op = 1 to ops do
        let what = Printf.sprintf "phase %d op %d" p op in
        let now = !clock in
        let offset () = Float.of_int (Util.Rng.int rng 300 - 5) in
        if Util.Rng.float rng 1.0 < push_share then begin
          match Util.Rng.int rng 4 with
          | 0 ->
            let delay = offset () in
            Sim.Engine.schedule engine ~delay
              (add ~time:(now +. Float.max 0. delay) ~seq:(claim ()))
          | 1 ->
            let time = now +. offset () in
            Sim.Engine.schedule_at engine ~time (add ~time ~seq:(claim ()))
          | 2 ->
            let time = now +. offset () in
            let seq = Sim.Engine.reserve_seq engine in
            Alcotest.(check int) (what ^ ": reserved seq") (claim ()) seq;
            Sim.Engine.schedule_at_seq engine ~time ~seq (add ~time ~seq)
          | _ ->
            let time = now +. offset () in
            Sim.Engine.schedule_lane lanes.(Util.Rng.int rng 2) ~time (add ~time ~seq:(claim ()))
        end
        else if Util.Rng.int rng 8 > 0 then begin
          let stepped = Sim.Engine.step engine in
          Alcotest.(check bool) (what ^ ": step") (not (Model.is_empty !model)) stepped;
          if stepped then expect_fired what
        end
        else begin
          let limit = now +. Float.of_int (Util.Rng.int rng 8) in
          Sim.Engine.run ~until:limit engine;
          let due = Model.filter (fun (time, _, _) -> time <= limit) !model in
          let want = List.map (fun (time, _, id) -> (time, id)) (Model.elements due) in
          Alcotest.(check (list (pair (float 0.) int))) (what ^ ": run ~until") want
            (List.rev !fired);
          fired := [];
          model := Model.diff !model due;
          clock := Float.max limit (Model.fold (fun (time, _, _) c -> Float.max time c) due now)
        end;
        Alcotest.(check (float 0.)) (what ^ ": clock") !clock (Sim.Engine.now engine);
        Alcotest.(check int) (what ^ ": pending") (Model.cardinal !model)
          (Sim.Engine.pending engine)
      done)
    phases;
  while not (Model.is_empty !model) do
    Alcotest.(check bool) "drain: step" true (Sim.Engine.step engine);
    expect_fired "drain"
  done;
  Alcotest.(check bool) "drained" false (Sim.Engine.step engine);
  Alcotest.(check int) "events processed" !next_id (Sim.Engine.events_processed engine)

let test_topology_mean_latency () =
  let topology = Sim.Topology.create ~seed:1 ~mean_latency:15. ~nodes:20 () in
  let mean = Sim.Topology.mean_remote_latency topology in
  Alcotest.(check bool) "mean close to target" true (Float.abs (mean -. 15.) < 0.5);
  Alcotest.(check (float 1e-9)) "self latency small" 0.05
    (Sim.Topology.latency topology ~src:3 ~dst:3);
  (* Symmetry. *)
  Alcotest.(check (float 1e-9)) "symmetric"
    (Sim.Topology.latency topology ~src:2 ~dst:7)
    (Sim.Topology.latency topology ~src:7 ~dst:2)

let test_uniform_topology () =
  let topology = Sim.Topology.uniform ~latency:5. ~nodes:4 () in
  Alcotest.(check (float 1e-9)) "uniform" 5. (Sim.Topology.latency topology ~src:0 ~dst:3)

let make_network ?(nodes = 4) ?(service_time = 1.) () =
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.uniform ~latency:10. ~nodes () in
  let network = Sim.Network.create ~engine ~topology ~service_time ~jitter:0. () in
  (engine, network)

let test_network_delivery_and_counting () =
  let engine, network = make_network () in
  let received = ref [] in
  Sim.Network.set_handler network ~node:1 (fun ~src msg -> received := (src, msg) :: !received);
  let ping = Sim.Network.Kind.intern "ping" in
  Sim.Network.send network ~kind:ping ~src:0 ~dst:1 "hello";
  Sim.Network.send network ~kind:ping ~src:2 ~dst:1 "world";
  Sim.Network.send network ~src:1 ~dst:1 "self";
  Sim.Engine.run engine;
  Alcotest.(check int) "two handled remotely, one locally" 3 (List.length !received);
  Alcotest.(check int) "self-sends not counted" 2 (Sim.Network.messages_sent network);
  Alcotest.(check (list (pair string int))) "kind accounting" [ ("ping", 2) ]
    (Sim.Network.messages_by_kind network)

let test_network_service_queueing () =
  (* Two messages arriving together at one node must be processed serially:
     second handler fires one service_time later. *)
  let engine, network = make_network ~service_time:2. () in
  let times = ref [] in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ ->
      times := Sim.Engine.now engine :: !times);
  Sim.Network.send network ~src:0 ~dst:1 "a";
  Sim.Network.send network ~src:2 ~dst:1 "b";
  Sim.Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-6)) "first at latency+service" 12. t1;
    Alcotest.(check (float 1e-6)) "second queued behind" 14. t2
  | other -> Alcotest.failf "expected 2 deliveries, got %d" (List.length other)

let test_network_failure_drops () =
  let engine, network = make_network () in
  let received = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr received);
  Sim.Network.fail network 1;
  Sim.Network.send network ~src:0 ~dst:1 "lost";
  Sim.Engine.run engine;
  Alcotest.(check int) "failed node receives nothing" 0 !received;
  Alcotest.(check bool) "marked failed" true (Sim.Network.is_failed network 1);
  Alcotest.(check (list int)) "alive nodes" [ 0; 2; 3 ] (Sim.Network.alive_nodes network);
  Sim.Network.revive network 1;
  Sim.Network.send network ~src:0 ~dst:1 "back";
  Sim.Engine.run engine;
  Alcotest.(check int) "revived node receives" 1 !received

let test_network_drop_all () =
  let engine, network = make_network () in
  let received = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr received);
  Sim.Network.set_faults network { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.send network ~src:0 ~dst:1 "lost";
  Sim.Network.send network ~src:1 ~dst:1 "self"; (* self-sends are exempt *)
  Sim.Engine.run engine;
  Alcotest.(check int) "only the self-send arrives" 1 !received;
  Alcotest.(check int) "drop counted" 1 (Sim.Network.messages_dropped network);
  Sim.Network.set_faults network Sim.Network.no_faults;
  Sim.Network.send network ~src:0 ~dst:1 "back";
  Sim.Engine.run engine;
  Alcotest.(check int) "faults cleared" 2 !received

let test_network_duplication () =
  let engine, network = make_network () in
  let received = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr received);
  Sim.Network.set_faults network { Sim.Network.no_faults with duplicate = 1.0 };
  Sim.Network.send network ~src:0 ~dst:1 "twice";
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered twice" 2 !received;
  Alcotest.(check int) "duplication counted" 1 (Sim.Network.messages_duplicated network);
  Alcotest.(check int) "sent counted once" 1 (Sim.Network.messages_sent network)

let test_network_latency_spike () =
  let engine, network = make_network ~service_time:0. () in
  let at = ref None in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ ->
      at := Some (Sim.Engine.now engine));
  Sim.Network.set_faults network
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 10. };
  Sim.Network.send network ~src:0 ~dst:1 "slow";
  Sim.Engine.run engine;
  Alcotest.(check (option (float 1e-6))) "latency multiplied" (Some 100.) !at

let test_network_link_faults () =
  let engine, network = make_network () in
  let got1 = ref 0 and got2 = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr got1);
  Sim.Network.set_handler network ~node:2 (fun ~src:_ _ -> incr got2);
  Sim.Network.set_link_faults network ~a:0 ~b:1
    { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.send network ~src:0 ~dst:1 "flaky";
  Sim.Network.send network ~src:1 ~dst:0 "flaky-reverse"; (* link is symmetric *)
  Sim.Network.send network ~src:0 ~dst:2 "clean";
  Sim.Engine.run engine;
  Alcotest.(check int) "flaky link drops both directions" 0 !got1;
  Alcotest.(check int) "other link unaffected" 1 !got2;
  Alcotest.(check int) "two drops" 2 (Sim.Network.messages_dropped network);
  Sim.Network.clear_link_faults network ~a:0 ~b:1;
  Sim.Network.send network ~src:0 ~dst:1 "healed";
  Sim.Engine.run engine;
  Alcotest.(check int) "link healed" 1 !got1

let test_network_partition_and_heal () =
  let engine, network = make_network ~nodes:5 () in
  let received = Array.make 5 0 in
  for node = 0 to 4 do
    Sim.Network.set_handler network ~node (fun ~src:_ _ ->
        received.(node) <- received.(node) + 1)
  done;
  (* Node 4 is named in no group: it forms the implicit extra group. *)
  Sim.Network.partition network [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "partitioned" true (Sim.Network.partitioned network);
  Alcotest.(check bool) "same side reachable" true
    (Sim.Network.reachable network ~src:0 ~dst:1);
  Alcotest.(check bool) "cross side unreachable" false
    (Sim.Network.reachable network ~src:0 ~dst:2);
  Alcotest.(check bool) "implicit group isolated" false
    (Sim.Network.reachable network ~src:4 ~dst:0);
  Sim.Network.send network ~src:0 ~dst:1 "same";
  Sim.Network.send network ~src:0 ~dst:2 "cross";
  Sim.Network.send network ~src:2 ~dst:0 "cross-back";
  Sim.Network.send network ~src:4 ~dst:3 "orphan";
  Sim.Engine.run engine;
  Alcotest.(check int) "same-side delivered" 1 received.(1);
  Alcotest.(check int) "cross dropped" 0 received.(2);
  Alcotest.(check int) "cross-back dropped" 0 received.(0);
  Alcotest.(check int) "orphan dropped" 0 received.(3);
  Alcotest.(check int) "three boundary drops" 3 (Sim.Network.messages_dropped network);
  Sim.Network.heal network;
  Alcotest.(check bool) "healed" false (Sim.Network.partitioned network);
  Sim.Network.send network ~src:0 ~dst:2 "after-heal";
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered after heal" 1 received.(2)

let make_rpc ?(nodes = 4) () =
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.uniform ~latency:10. ~nodes () in
  let network = Sim.Network.create ~engine ~topology ~service_time:0.5 ~jitter:0. () in
  let rpc = Sim.Rpc.create ~network () in
  (engine, network, rpc)

let test_rpc_call_roundtrip () =
  let engine, _network, rpc = make_rpc () in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ req -> Some (req * 2));
  let answer = ref None in
  Sim.Rpc.call rpc ~src:0 ~dst:1 ~timeout:1000. 21
    ~on_reply:(fun rep -> answer := Some rep)
    ~on_timeout:(fun () -> Alcotest.fail "unexpected timeout");
  Sim.Engine.run engine;
  Alcotest.(check (option int)) "doubled" (Some 42) !answer

let test_rpc_multicall_collects_all () =
  let engine, _network, rpc = make_rpc () in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some (req + node))
  done;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:1000. 100
    ~on_done:(fun ~replies ~missing -> result := Some (replies, missing));
  Sim.Engine.run engine;
  match !result with
  | Some (replies, []) ->
    Alcotest.(check (list (pair int int)))
      "all replied" [ (1, 101); (2, 102); (3, 103) ]
      (List.sort compare replies)
  | Some (_, missing) -> Alcotest.failf "unexpected missing: %d" (List.length missing)
  | None -> Alcotest.fail "multicall never completed"

let test_rpc_multicall_timeout_reports_missing () =
  let engine, network, rpc = make_rpc () in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some req)
  done;
  Sim.Network.fail network 2;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:200. 7
    ~on_done:(fun ~replies ~missing -> result := Some (List.map fst replies, missing));
  Sim.Engine.run engine;
  Alcotest.(check (option (pair (list int) (list int))))
    "dead member reported missing"
    (Some ([ 1; 3 ], [ 2 ]))
    (Option.map (fun (r, m) -> (List.sort compare r, m)) !result)

let test_rpc_multicall_late_reply_discarded () =
  (* Node 2's link is spiked so its reply lands well after the multicall
     timeout: [on_done] must fire exactly once, report 2 as missing, and the
     late reply must be silently discarded (no crash, no second callback). *)
  let engine, network, rpc = make_rpc () in
  let served = ref [] in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req ->
        served := node :: !served;
        Some req)
  done;
  Sim.Network.set_link_faults network ~a:0 ~b:2
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 20. };
  let done_count = ref 0 in
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:50. 7
    ~on_done:(fun ~replies ~missing ->
      incr done_count;
      result := Some (List.sort compare (List.map fst replies), missing));
  Sim.Engine.run engine;
  Alcotest.(check int) "on_done exactly once" 1 !done_count;
  Alcotest.(check (option (pair (list int) (list int))))
    "slow node missing, fast nodes in"
    (Some ([ 1; 3 ], [ 2 ]))
    !result;
  (* The request did reach node 2 (only late); its reply was dropped on the
     floor by the pending-table check, not delivered to the callback. *)
  Alcotest.(check bool) "slow node still served the request" true
    (List.mem 2 !served)

let test_rpc_multicall_missing_is_exact () =
  let engine, network, rpc = make_rpc ~nodes:6 () in
  for node = 0 to 5 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some req)
  done;
  Sim.Network.fail network 2;
  Sim.Network.fail network 4;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3; 4; 5 ] ~timeout:200. 9
    ~on_done:(fun ~replies ~missing ->
      result := Some (List.sort compare (List.map fst replies), List.sort compare missing));
  Sim.Engine.run engine;
  Alcotest.(check (option (pair (list int) (list int))))
    "missing names exactly the non-repliers"
    (Some ([ 1; 3; 5 ], [ 2; 4 ]))
    !result

(* A late reply must not reach a later call, even one that reuses the
   decided call's pooled record.  Node 2's link is spiked (200 ms each
   way), so call A times out at 50 ms; A's continuation issues B, which
   takes A's record from the pool.  A's late reply from 2 lands while B
   still awaits 2; B must ignore it and complete with its own reply. *)
let test_rpc_late_reply_after_timeout_reused () =
  let engine, network, rpc = make_rpc () in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some req)
  done;
  Sim.Network.set_link_faults network ~a:0 ~b:2
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 20. };
  let a_done = ref [] and b_done = ref [] in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2 ] ~timeout:50. 7
    ~on_done:(fun ~replies ~missing ->
      a_done := (replies, missing) :: !a_done;
      Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 2; 3 ] ~timeout:1000. 8
        ~on_done:(fun ~replies ~missing -> b_done := (replies, missing) :: !b_done));
  Sim.Engine.run engine;
  let calls = Alcotest.(list (pair (list (pair int int)) (list int))) in
  Alcotest.check calls "A timed out once" [ ([ (1, 7) ], [ 2 ]) ] !a_done;
  Alcotest.check calls "B saw only its own replies" [ ([ (3, 8); (2, 8) ], []) ] !b_done

(* Replies after completion, and duplicates, are dropped.  Every message
   on link 0-1 is duplicated.  Call C completes on node 1's first reply
   and times out at 22 ms, freeing its record; D, issued at 22.5 ms,
   reuses it while C's stray duplicates are still in flight.  Call E
   awaits a spiked node 2 while node 1's duplicates arrive. *)
let test_rpc_duplicate_and_post_completion_replies () =
  let engine, network, rpc = make_rpc () in
  let served = ref 0 in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req ->
        if node = 1 then incr served;
        Some req)
  done;
  Sim.Network.set_link_faults network ~a:0 ~b:1
    { Sim.Network.no_faults with duplicate = 1.0 };
  let calls = Alcotest.(list (pair (list (pair int int)) (list int))) in
  let c_done = ref [] and d_done = ref [] in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1 ] ~timeout:22. 8
    ~on_done:(fun ~replies ~missing -> c_done := (replies, missing) :: !c_done);
  Sim.Engine.schedule engine ~delay:22.5 (fun () ->
      Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1 ] ~timeout:1000. 9
        ~on_done:(fun ~replies ~missing -> d_done := (replies, missing) :: !d_done));
  Sim.Engine.run engine;
  Alcotest.check calls "C completed once" [ ([ (1, 8) ], []) ] !c_done;
  Alcotest.check calls "D ignored C's strays" [ ([ (1, 9) ], []) ] !d_done;
  Alcotest.(check int) "node 1 served every duplicate" 4 !served;
  Sim.Network.set_link_faults network ~a:0 ~b:2
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 20. };
  let e_done = ref [] in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2 ] ~timeout:1000. 10
    ~on_done:(fun ~replies ~missing -> e_done := (replies, missing) :: !e_done);
  Sim.Engine.run engine;
  Alcotest.check calls "one reply per node" [ ([ (1, 10); (2, 10) ], []) ] !e_done

(* On timeout, [replies] come in arrival order and [missing] in [dsts]
   order, neither sorted.  Node 3's link is spiked so its reply arrives
   after node 1's; nodes 4 and 2 are down. *)
let test_rpc_timeout_orders () =
  let engine, network, rpc = make_rpc ~nodes:6 () in
  for node = 0 to 5 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some (req + node))
  done;
  Sim.Network.set_link_faults network ~a:0 ~b:3
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 3. };
  Sim.Network.fail network 4;
  Sim.Network.fail network 2;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 3; 1; 4; 2 ] ~timeout:200. 100
    ~on_done:(fun ~replies ~missing -> result := Some (replies, missing));
  Sim.Engine.run engine;
  Alcotest.(check (option (pair (list (pair int int)) (list int))))
    "arrival order, then dsts order"
    (Some ([ (1, 101); (3, 103) ], [ 4; 2 ]))
    !result

let[@inline never] multicall_watched rpc ~completed =
  let cell = ref 0 in
  let watch = Weak.create 1 in
  Weak.set watch 0 (Some cell);
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:1000. 5
    ~on_done:(fun ~replies ~missing:_ ->
      incr completed;
      cell := List.length replies);
  watch

(* A completed call must not keep its continuation alive until its
   timeout fires: the record stays queued in the timeout lane, but it no
   longer references [on_done]. *)
let test_rpc_completed_call_releases_continuation () =
  let engine, _network, rpc = make_rpc () in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some req)
  done;
  let completed = ref 0 in
  let watch = multicall_watched rpc ~completed in
  Sim.Engine.run ~until:100. engine;
  Alcotest.(check int) "completed before the timeout" 1 !completed;
  Alcotest.(check bool) "timeout still queued" true (Sim.Engine.pending engine > 0);
  Gc.full_major ();
  Alcotest.(check bool) "continuation collected" false (Weak.check watch 0);
  Sim.Engine.run engine;
  Alcotest.(check int) "the timeout did not call it again" 1 !completed

let test_rpc_acked_send_retransmits () =
  (* The link starts fully lossy, then heals at t=70; acked_send keeps
     retransmitting on timeout until one attempt gets through. *)
  let engine, network, rpc = make_rpc () in
  let handled = ref 0 in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ _ ->
      incr handled;
      Some 0);
  Sim.Network.set_link_faults network ~a:0 ~b:1
    { Sim.Network.no_faults with drop = 1.0 };
  Sim.Engine.schedule engine ~delay:70. (fun () ->
      Sim.Network.clear_link_faults network ~a:0 ~b:1);
  Sim.Rpc.acked_send rpc ~src:0 ~dst:1 ~timeout:25. 42;
  Sim.Engine.run engine;
  Alcotest.(check bool) "delivered after retransmission" true (!handled >= 1);
  Alcotest.(check bool) "early attempts were dropped" true
    (Sim.Network.messages_dropped network >= 2)

let test_rpc_no_reply_handler () =
  let engine, _network, rpc = make_rpc () in
  let casts = ref 0 in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ _ ->
      incr casts;
      None);
  Sim.Rpc.cast rpc ~src:0 ~dst:1 99;
  Sim.Engine.run engine;
  Alcotest.(check int) "cast handled" 1 !casts

let test_failure_detection () =
  let engine = Sim.Engine.create () in
  let killed = ref [] and detected = ref [] in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:25. ~kill:(fun n -> killed := n :: !killed) ()
  in
  Sim.Failure.on_detect failure (fun n -> detected := (n, Sim.Engine.now engine) :: !detected);
  Sim.Failure.schedule failure ~at:100. ~node:3;
  Sim.Engine.run ~until:110. engine;
  Alcotest.(check (list int)) "killed at failure time" [ 3 ] !killed;
  Alcotest.(check bool) "killed before detection" true (Sim.Failure.is_killed failure 3);
  Alcotest.(check bool) "not yet suspected" false (Sim.Failure.is_suspected failure 3);
  Alcotest.(check (list (pair int (float 1e-9)))) "not yet detected" [] !detected;
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9)))) "detected after delay" [ (3, 125.) ]
    !detected;
  Alcotest.(check bool) "suspected after detection" true (Sim.Failure.is_suspected failure 3);
  Alcotest.(check (list int)) "killed list" [ 3 ] (Sim.Failure.killed_nodes failure);
  Alcotest.(check (list int)) "suspected list" [ 3 ] (Sim.Failure.suspected_nodes failure)

let test_failure_recovery_cycle () =
  let engine = Sim.Engine.create () in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:25. ~kill:(fun _ -> ()) ()
  in
  let recovered = ref [] in
  Sim.Failure.on_recover failure (fun ~node ~was_killed ->
      recovered := (node, was_killed, Sim.Engine.now engine) :: !recovered);
  Sim.Failure.schedule failure ~at:100. ~node:2;
  Sim.Failure.schedule_recovery failure ~at:300. ~node:2;
  Sim.Engine.run engine;
  Alcotest.(check bool) "no longer killed" false (Sim.Failure.is_killed failure 2);
  (* Suspicion persists until the re-admission layer clears it. *)
  Alcotest.(check bool) "still suspected" true (Sim.Failure.is_suspected failure 2);
  Alcotest.(check (list (triple int bool (float 1e-9))))
    "recovery callback with was_killed" [ (2, true, 300.) ] !recovered;
  Sim.Failure.clear_suspicion failure 2;
  Alcotest.(check bool) "suspicion cleared" false (Sim.Failure.is_suspected failure 2)

let test_failure_recovery_before_detection () =
  (* A node that restarts faster than the detector notices is never
     suspected at all. *)
  let engine = Sim.Engine.create () in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:50. ~kill:(fun _ -> ()) ()
  in
  let detections = ref 0 in
  Sim.Failure.on_detect failure (fun _ -> incr detections);
  Sim.Failure.schedule failure ~at:100. ~node:1;
  Sim.Failure.schedule_recovery failure ~at:120. ~node:1;
  Sim.Engine.run engine;
  Alcotest.(check int) "no detection" 0 !detections;
  Alcotest.(check bool) "not suspected" false (Sim.Failure.is_suspected failure 1)

let test_false_suspicion () =
  let engine = Sim.Engine.create () in
  let failure = Sim.Failure.create ~engine ~kill:(fun _ -> Alcotest.fail "kill on suspicion") () in
  let detected = ref [] and recovered = ref [] in
  Sim.Failure.on_detect failure (fun n -> detected := n :: !detected);
  Sim.Failure.on_recover failure (fun ~node ~was_killed ->
      recovered := (node, was_killed) :: !recovered;
      Sim.Failure.clear_suspicion failure node);
  Sim.Failure.schedule_false_suspicion failure ~at:50. ~clear_after:100. ~node:4;
  Sim.Engine.run ~until:60. engine;
  Alcotest.(check (list int)) "suspected" [ 4 ] !detected;
  Alcotest.(check bool) "but not killed" false (Sim.Failure.is_killed failure 4);
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int bool))) "cleared as live" [ (4, false) ] !recovered;
  Alcotest.(check bool) "no longer suspected" false (Sim.Failure.is_suspected failure 4);
  Alcotest.(check int) "counted" 1 (Sim.Failure.false_suspicions failure)

let test_detection_jitter () =
  let engine = Sim.Engine.create () in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:20. ~detection_jitter:30. ~seed:5
      ~kill:(fun _ -> ())
      ()
  in
  let at = ref None in
  Sim.Failure.on_detect failure (fun _ -> at := Some (Sim.Engine.now engine));
  Sim.Failure.schedule failure ~at:100. ~node:0;
  Sim.Engine.run engine;
  match !at with
  | None -> Alcotest.fail "never detected"
  | Some t ->
    Alcotest.(check bool) "at least base delay" true (t >= 120.);
    Alcotest.(check bool) "within jitter bound" true (t < 150.)

let suite =
  [
    Alcotest.test_case "engine event ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine run ~until" `Quick test_engine_until;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine pending counts lanes" `Quick test_engine_lane_pending;
    Alcotest.test_case "engine run ~until at lane head" `Quick test_engine_until_lane;
    Alcotest.test_case "engine drops fired actions" `Quick test_engine_releases_actions;
    Alcotest.test_case "engine matches a seeded (time, seq) model" `Quick test_engine_model_seeded;
    Alcotest.test_case "topology mean latency" `Quick test_topology_mean_latency;
    Alcotest.test_case "topology uniform" `Quick test_uniform_topology;
    Alcotest.test_case "network delivery and counting" `Quick test_network_delivery_and_counting;
    Alcotest.test_case "network service queueing" `Quick test_network_service_queueing;
    Alcotest.test_case "network failure drops" `Quick test_network_failure_drops;
    Alcotest.test_case "network drop-all fault plan" `Quick test_network_drop_all;
    Alcotest.test_case "network duplication" `Quick test_network_duplication;
    Alcotest.test_case "network latency spike" `Quick test_network_latency_spike;
    Alcotest.test_case "network per-link faults" `Quick test_network_link_faults;
    Alcotest.test_case "network partition and heal" `Quick test_network_partition_and_heal;
    Alcotest.test_case "rpc call roundtrip" `Quick test_rpc_call_roundtrip;
    Alcotest.test_case "rpc multicall collects all" `Quick test_rpc_multicall_collects_all;
    Alcotest.test_case "rpc multicall timeout" `Quick test_rpc_multicall_timeout_reports_missing;
    Alcotest.test_case "rpc multicall late reply discarded" `Quick
      test_rpc_multicall_late_reply_discarded;
    Alcotest.test_case "rpc multicall missing exact" `Quick
      test_rpc_multicall_missing_is_exact;
    Alcotest.test_case "rpc late reply ignored by a reused call" `Quick
      test_rpc_late_reply_after_timeout_reused;
    Alcotest.test_case "rpc duplicate and post-completion replies" `Quick
      test_rpc_duplicate_and_post_completion_replies;
    Alcotest.test_case "rpc timeout reply and missing order" `Quick test_rpc_timeout_orders;
    Alcotest.test_case "rpc completed call releases continuation" `Quick
      test_rpc_completed_call_releases_continuation;
    Alcotest.test_case "rpc acked send retransmits" `Quick test_rpc_acked_send_retransmits;
    Alcotest.test_case "rpc one-way cast" `Quick test_rpc_no_reply_handler;
    Alcotest.test_case "failure detection" `Quick test_failure_detection;
    Alcotest.test_case "failure recovery cycle" `Quick test_failure_recovery_cycle;
    Alcotest.test_case "failure fast restart undetected" `Quick
      test_failure_recovery_before_detection;
    Alcotest.test_case "false suspicion" `Quick test_false_suspicion;
    Alcotest.test_case "detection jitter" `Quick test_detection_jitter;
    QCheck_alcotest.to_alcotest engine_order_matches_sort;
  ]
