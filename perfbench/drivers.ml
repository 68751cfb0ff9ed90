(* Layer drivers: each times one layer's public functions on inputs shaped
   like the workload (its node count, object count, queue depth, trace
   stream), through Bechamel's monotonic clock and an OLS fit over runs. *)

open Core

let ns_per_run ~quota name ~ops f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let analysis = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
  let estimate =
    Hashtbl.fold
      (fun _ r acc ->
        match Analyze.OLS.estimates r with Some [ e ] -> e | Some _ | None -> acc)
      analysis Float.nan
  in
  (name, estimate /. Float.of_int ops)

let nop () = ()

(* Schedule one event and dispatch the earliest, holding the heap at the
   workload's mean queue depth. *)
let engine ~quota ~depth =
  let engine = Sim.Engine.create () in
  let rng = Random.State.make [| 1 |] in
  let horizon = 30. in
  for _ = 1 to Stdlib.max 1 depth do
    Sim.Engine.schedule engine ~delay:(Random.State.float rng horizon) nop
  done;
  ns_per_run ~quota "sim.engine.ns_per_event" ~ops:1 (fun () ->
      Sim.Engine.schedule engine ~delay:(Random.State.float rng horizon) nop;
      ignore (Sim.Engine.step engine))

let network ~quota ~topology ~nodes =
  let engine = Sim.Engine.create () in
  let net = Sim.Network.create ~engine ~topology ~seed:3 () in
  for node = 0 to nodes - 1 do
    Sim.Network.set_handler net ~node (fun ~src:_ (_ : int) -> ())
  done;
  let dsts = List.init nodes Fun.id in
  ns_per_run ~quota "sim.network.ns_per_delivery" ~ops:nodes (fun () ->
      Sim.Network.multicast_batch net ~src:0 ~dsts 1;
      Sim.Engine.run engine)

let rpc ~quota ~topology ~nodes =
  let engine = Sim.Engine.create () in
  let network = Sim.Network.create ~engine ~topology ~seed:5 () in
  let rpc = Sim.Rpc.create ~network () in
  for node = 0 to nodes - 1 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ (req : int) -> Some (req + 1))
  done;
  let dsts = List.init nodes Fun.id in
  ns_per_run ~quota "sim.rpc.ns_per_multicall" ~ops:1 (fun () ->
      Sim.Rpc.multicall rpc ~src:0 ~dsts ~timeout:1_000. 1
        ~on_done:(fun ~replies:_ ~missing:_ -> ());
      Sim.Engine.run engine)

let tree_quorum ~quota ~nodes =
  let tq = Quorum.Tree_quorum.create ~nodes () in
  let salt = ref 0 in
  ns_per_run ~quota "quorum.tree_quorum.ns_per_lookup" ~ops:2 (fun () ->
      salt := (!salt + 1) mod nodes;
      ignore (Quorum.Tree_quorum.read_quorum ~salt:!salt tq);
      ignore (Quorum.Tree_quorum.write_quorum ~salt:!salt tq))

let replica ~quota ~objects =
  let store = Store.Replica.create () in
  for oid = 0 to objects - 1 do
    Store.Replica.ensure store ~oid ~init:(Store.Value.Int oid)
  done;
  let counter = ref 0 in
  ns_per_run ~quota "store.replica.ns_per_lock_apply" ~ops:1 (fun () ->
      let oid = !counter mod objects in
      incr counter;
      ignore (Store.Replica.try_lock store ~oid ~txn:1);
      Store.Replica.apply store ~oid ~version:!counter ~value:(Store.Value.Int !counter)
        ~txn:1)

let rqv ~quota =
  let entries = 16 in
  let store = Store.Replica.create () in
  for oid = 0 to (2 * entries) - 1 do
    Store.Replica.ensure store ~oid ~init:Store.Value.Unit
  done;
  let dataset =
    Messages.dataset_of_list
      (List.init entries (fun oid -> { Messages.oid; version = 0; owner = oid land 3 }))
  in
  ns_per_run ~quota "core.rqv.ns_per_entry" ~ops:entries (fun () ->
      ignore (Rqv.validate store ~txn:1 ~dataset))

let rwset ~quota =
  let oids = List.init 16 Fun.id in
  ns_per_run ~quota "core.rwset.ns_per_add_merge" ~ops:17 (fun () ->
      let set =
        List.fold_left
          (fun s oid ->
            Rwset.add s { Rwset.oid; version = 0; value = Store.Value.Int oid; owner = 0 })
          Rwset.empty oids
      in
      ignore (Rwset.merge_into ~child:set ~parent:set))

(* A read-only root of the workload's own shape (its generator with every
   operation a read), run to completion on an otherwise idle cluster. *)
let executor ~quota (w : Episode.workload) ~topology =
  let cluster =
    Cluster.create ~nodes:w.nodes ~seed:77 ~topology ~with_oracle:false
      ~batch_commit:w.batch_commit (Config.default Config.Closed)
  in
  let instance = w.benchmark.setup cluster { w.params with read_ratio = 1.0 } in
  let rng = Util.Rng.create 5 in
  let programs = Array.init 256 (fun _ -> instance.generate rng) in
  let i = ref 0 in
  ns_per_run ~quota "core.executor.ns_per_ro_txn" ~ops:1 (fun () ->
      incr i;
      ignore
        (Cluster.run_program cluster ~node:(!i mod w.nodes)
           programs.(!i land (Array.length programs - 1))))

let tracer ~quota =
  let t = Obs.Tracer.create ~capacity:(1 lsl 12) () in
  let kind = Obs.Sem.net_deliver in
  let time = ref 0. in
  ns_per_run ~quota "obs.tracer.ns_per_emit" ~ops:1 (fun () ->
      time := !time +. 1.;
      Obs.Tracer.emit8 t ~time:!time ~kind ~node:3 ~txn:17 ~oid:(-1) ~a:5 ~b:2 ~x:0.)

(* Replays the tail of the workload's own trace through a fresh checker. *)
let online ~quota (events : Obs.Tracer.event list) =
  let events = Array.of_list events in
  let n = Array.length events in
  if n = 0 then ("obs.online.ns_per_event", 0.)
  else
    ns_per_run ~quota "obs.online.ns_per_event" ~ops:n (fun () ->
        let ck = Obs.Online.create () in
        Array.iter
          (fun (e : Obs.Tracer.event) ->
            Obs.Online.feed8 ck ~time:e.time ~kind:e.ekind ~node:e.node ~txn:e.txn
              ~oid:e.oid ~a:e.a ~b:e.b ~x:e.x)
          events)

let all ~quota (w : Episode.workload) ~topology ~depth ~trace_tail =
  Gc.compact ();
  [
    engine ~quota ~depth;
    network ~quota ~topology ~nodes:w.nodes;
    rpc ~quota ~topology ~nodes:w.nodes;
    tree_quorum ~quota ~nodes:w.nodes;
    replica ~quota ~objects:w.params.objects;
    rqv ~quota;
    rwset ~quota;
    executor ~quota w ~topology;
    tracer ~quota;
    online ~quota trace_tail;
  ]
