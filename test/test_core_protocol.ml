(* Core protocol unit tests: the Txn DSL monad laws, read/write-set
   algebra, read-quorum validation (including the paper's running example),
   the server handlers, and the 1-copy oracle. *)

open Core

let value_testable = Alcotest.testable Store.Value.pp Store.Value.equal

(* --- Txn DSL ----------------------------------------------------------- *)

(* Interpret a program against a plain in-memory table: enough to check the
   monad's sequencing without any distribution. *)
let rec eval table = function
  | Txn.Return v -> v
  | Txn.Fail msg -> Alcotest.failf "eval hit Fail %s" msg
  | Txn.Read (oid, k) -> eval table (k (Hashtbl.find table oid))
  | Txn.Write (oid, v, k) ->
    Hashtbl.replace table oid v;
    eval table (k ())
  | Txn.Nested (body, k) -> eval table (k (eval table (body ())))
  | Txn.Open { body; compensate = _; k } -> eval table (k (eval table (body ())))
  | Txn.Checkpoint k -> eval table (k ())

let test_dsl_sequencing () =
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 1 (Store.Value.Int 10);
  let open Txn.Syntax in
  let program =
    let* v = Txn.read 1 in
    let* _ = Txn.write 2 (Store.Value.Int (Store.Value.to_int v * 2)) in
    let* doubled = Txn.read 2 in
    Txn.return doubled
  in
  Alcotest.check value_testable "read-write-read" (Store.Value.Int 20) (eval table program)

let test_monad_laws () =
  let table () =
    let t = Hashtbl.create 4 in
    Hashtbl.replace t 1 (Store.Value.Int 7);
    t
  in
  let f v = Txn.write 2 v in
  (* Left identity: bind (return v) f = f v. *)
  Alcotest.check value_testable "left identity"
    (eval (table ()) (Txn.bind (Txn.return (Store.Value.Int 1)) f))
    (eval (table ()) (f (Store.Value.Int 1)));
  (* Right identity: bind m return = m. *)
  Alcotest.check value_testable "right identity"
    (eval (table ()) (Txn.bind (Txn.read 1) Txn.return))
    (eval (table ()) (Txn.read 1));
  (* Associativity. *)
  let g _ = Txn.read 1 in
  Alcotest.check value_testable "associativity"
    (eval (table ()) (Txn.bind (Txn.bind (Txn.read 1) f) g))
    (eval (table ()) (Txn.bind (Txn.read 1) (fun v -> Txn.bind (f v) g)))

let test_ops_count () =
  let open Txn.Syntax in
  let program =
    let* _ = Txn.read 1 in
    let* _ = Txn.write 2 Store.Value.Unit in
    Txn.return Store.Value.Unit
  in
  Alcotest.(check int) "two operations" 2 (Txn.ops program)

(* --- Rwset ------------------------------------------------------------- *)

let entry ?(owner = 0) ?(version = 0) oid : Rwset.entry =
  { oid; version; value = Store.Value.Int oid; owner }

let test_rwset_merge () =
  let child = Rwset.add (Rwset.add Rwset.empty (entry ~owner:1 ~version:5 1)) (entry ~owner:1 2) in
  let parent = Rwset.add (Rwset.add Rwset.empty (entry ~version:2 1)) (entry 3) in
  let merged = Rwset.merge_into ~child ~parent in
  Alcotest.(check int) "merged size" 3 (Rwset.size merged);
  (* The child's copy wins on collision (it is fresher). *)
  begin
    match Rwset.find merged 1 with
    | Some e -> Alcotest.(check int) "child version wins" 5 e.version
    | None -> Alcotest.fail "entry 1 lost"
  end;
  let retagged = Rwset.retag merged ~owner:0 in
  Alcotest.(check bool) "all retagged" true
    (List.for_all (fun (e : Rwset.entry) -> e.owner = 0) (Rwset.entries retagged))

let rwset_add_find =
  QCheck.Test.make ~name:"rwset add/find/remove" ~count:200
    QCheck.(small_list small_nat)
    (fun oids ->
      let set = List.fold_left (fun s oid -> Rwset.add s (entry oid)) Rwset.empty oids in
      List.for_all (fun oid -> Rwset.mem set oid) oids
      && List.for_all (fun oid -> not (Rwset.mem (Rwset.remove set oid) oid)) oids
      && Rwset.size set = List.length (List.sort_uniq Int.compare oids))

(* --- Rqv: the paper's running example (§III-B) ------------------------- *)

(* T1 has read {o1, o2, o3}; T2 commits a new version of o2; when T1
   requests o4, validation must fail and name the right abort target. *)
let test_rqv_paper_example () =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:Store.Value.Unit) [ 1; 2; 3; 4 ];
  (* T2's commit bumped o2. *)
  Store.Replica.apply store ~oid:2 ~version:1 ~value:(Store.Value.Int 9) ~txn:99;
  let dataset =
    Messages.dataset_of_list
      [
        { Messages.oid = 1; version = 0; owner = 0 };
        { Messages.oid = 2; version = 0; owner = 1 };
        { Messages.oid = 3; version = 0; owner = 2 };
      ]
  in
  Alcotest.(check (option int)) "abort target is o2's owner" (Some 1)
    (Rqv.validate store ~txn:1 ~dataset)

let test_rqv_valid_dataset () =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:Store.Value.Unit) [ 1; 2 ];
  let dataset =
    Messages.dataset_of_list
      [ { Messages.oid = 1; version = 0; owner = 0 }; { Messages.oid = 2; version = 0; owner = 1 } ]
  in
  Alcotest.(check (option int)) "valid" None (Rqv.validate store ~txn:1 ~dataset)

let test_rqv_min_owner_wins () =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:Store.Value.Unit) [ 1; 2 ];
  Store.Replica.apply store ~oid:1 ~version:1 ~value:Store.Value.Unit ~txn:50;
  Store.Replica.apply store ~oid:2 ~version:1 ~value:Store.Value.Unit ~txn:51;
  let dataset =
    Messages.dataset_of_list
      [ { Messages.oid = 1; version = 0; owner = 3 }; { Messages.oid = 2; version = 0; owner = 1 } ]
  in
  (* Both invalid: the ancestor-most (minimum) owner is the target. *)
  Alcotest.(check (option int)) "min owner" (Some 1) (Rqv.validate store ~txn:1 ~dataset)

let test_rqv_protected_fails () =
  let store = Store.Replica.create () in
  Store.Replica.ensure store ~oid:1 ~init:Store.Value.Unit;
  ignore (Store.Replica.try_lock store ~oid:1 ~txn:77);
  let dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 0; owner = 2 } ] in
  Alcotest.(check (option int)) "protected object invalidates" (Some 2)
    (Rqv.validate store ~txn:1 ~dataset);
  (* ... but not against the lock holder itself. *)
  Alcotest.(check (option int)) "owner sees through its own lock" None
    (Rqv.validate store ~txn:77 ~dataset)

(* --- Server ------------------------------------------------------------- *)

let server_with_objects oids =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:(Store.Value.Int 0)) oids;
  Server.create ~node:0 ~store

let test_server_read () =
  let server = server_with_objects [ 1 ] in
  match
    Server.handle server ~src:5
      (Messages.Read_req
         { txn = 1; oid = 1; dataset = Messages.empty_dataset; write_intent = false; record = true })
  with
  | Some (Messages.Read_ok { oid; version; value }) ->
    Alcotest.(check int) "oid" 1 oid;
    Alcotest.(check int) "version" 0 version;
    Alcotest.check value_testable "value" (Store.Value.Int 0) value;
    Alcotest.(check (list int)) "PR updated" [ 1 ] (Store.Replica.readers (Server.store server) 1)
  | Some _ | None -> Alcotest.fail "expected Read_ok"

let test_server_commit_vote_and_apply () =
  let server = server_with_objects [ 1; 2 ] in
  let dataset =
    Messages.dataset_of_list
      [ { Messages.oid = 1; version = 0; owner = 0 }; { Messages.oid = 2; version = 0; owner = 0 } ]
  in
  begin
    match
      Server.handle server ~src:5
        (Messages.Commit_req { txn = 9; dataset; locks = [ 2 ]; round = 1; peers = [] })
    with
    | Some (Messages.Vote { commit = true; _ }) -> ()
    | Some _ | None -> Alcotest.fail "expected commit vote"
  end;
  Alcotest.(check bool) "lock taken" true
    (Store.Replica.is_protected (Server.store server) ~oid:2 ~against:999);
  (* A competing committer must be denied with lock_conflict. *)
  begin
    match
      Server.handle server ~src:6
        (Messages.Commit_req { txn = 10; dataset; locks = [ 2 ]; round = 1; peers = [] })
    with
    | Some (Messages.Vote { commit = false; lock_conflict = true }) -> ()
    | Some _ | None -> Alcotest.fail "expected lock-conflict denial"
  end;
  (* Apply installs the write and releases the lock. *)
  ignore
    (Server.handle server ~src:5
       (Messages.Apply
          {
            txn = 9;
            writes = Messages.writes_of_list [ (2, 1, Store.Value.Int 5) ];
            reads = [| 1 |];
          }));
  Alcotest.(check int) "version bumped" 1 (Store.Replica.version (Server.store server) 2);
  Alcotest.(check bool) "lock released" false
    (Store.Replica.is_protected (Server.store server) ~oid:2 ~against:999)

let test_server_stale_commit_denied () =
  let server = server_with_objects [ 1 ] in
  Store.Replica.apply (Server.store server) ~oid:1 ~version:2 ~value:Store.Value.Unit ~txn:1;
  match
    Server.handle server ~src:5
      (Messages.Commit_req
         {
           txn = 9;
           dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 1; owner = 0 } ];
           locks = [ 1 ];
           round = 1;
           peers = [];
         })
  with
  | Some (Messages.Vote { commit = false; lock_conflict }) ->
    Alcotest.(check bool) "version conflict, not lock" false lock_conflict
  | Some _ | None -> Alcotest.fail "expected denial"

let test_server_release () =
  let server = server_with_objects [ 1 ] in
  ignore
    (Server.handle server ~src:5
       (Messages.Commit_req
          {
            txn = 9;
            dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 0; owner = 0 } ];
            locks = [ 1 ];
            round = 1;
            peers = [];
          }));
  ignore (Server.handle server ~src:5 (Messages.Release { txn = 9; oids = [ 1 ]; round = 1 }));
  Alcotest.(check bool) "released" false
    (Store.Replica.is_protected (Server.store server) ~oid:1 ~against:999)

(* A Release is retransmitted at-least-once, so one from an abandoned
   commit round can land after a later round of the same transaction
   re-acquired the lock.  Freeing it then would let a competing writer
   commit the same version (seen in the wild as chaos seed 35's
   two-writers-one-version oracle violation). *)
let test_server_stale_release_ignored () =
  let server = server_with_objects [ 1 ] in
  let dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 0; owner = 0 } ] in
  ignore
    (Server.handle server ~src:5
       (Messages.Commit_req { txn = 9; dataset; locks = [ 1 ]; round = 1; peers = [] }));
  (* The coordinator timed out on round 1, released, and retried: round 2
     re-locks here... *)
  ignore
    (Server.handle server ~src:5
       (Messages.Commit_req { txn = 9; dataset; locks = [ 1 ]; round = 2; peers = [] }));
  (* ...then round 1's Release retransmission finally arrives. *)
  ignore (Server.handle server ~src:5 (Messages.Release { txn = 9; oids = [ 1 ]; round = 1 }));
  Alcotest.(check bool) "stale release ignored" true
    (Store.Replica.is_protected (Server.store server) ~oid:1 ~against:999);
  Alcotest.(check bool) "still blocks competing committer" false
    (Store.Replica.try_lock (Server.store server) ~oid:1 ~txn:10);
  (* The current round's Release does free the lock. *)
  ignore (Server.handle server ~src:5 (Messages.Release { txn = 9; oids = [ 1 ]; round = 2 }));
  Alcotest.(check bool) "current-round release frees" false
    (Store.Replica.is_protected (Server.store server) ~oid:1 ~against:999)

(* A sequential Commit_req is voted as the one entry of a batch with no
   predecessors and nothing decided: over random replica states, both
   handlers must agree on (commit, lock_conflict).  Per object: hosted or
   not, the local version, and its lease (none, the voter's own, foreign);
   per row: absent or the version read, and whether it is also locked. *)
let vote_agreement =
  let nobj = 5 in
  let txn = 9 in
  let gen =
    QCheck.Gen.(
      pair
        (list_repeat nobj (triple bool (int_range 0 3) (int_range 0 2)))
        (list_repeat nobj (pair (int_range (-1) 3) bool)))
  in
  let print (objects, rows) =
    let obj (hosted, version, lease) =
      if hosted then Printf.sprintf "v%d/lease%d" version lease else "unhosted"
    in
    let row (read, lock) = Printf.sprintf "%d%s" read (if lock then "L" else "") in
    Printf.sprintf "objects [%s] rows [%s]"
      (String.concat "; " (List.map obj objects))
      (String.concat "; " (List.map row rows))
  in
  QCheck.Test.make ~name:"commit_req vote = one-entry batch vote" ~count:500
    (QCheck.make ~print gen) (fun (objects, rows) ->
      let replica () =
        let store = Store.Replica.create () in
        List.iteri
          (fun oid (hosted, version, lease) ->
            if hosted then begin
              Store.Replica.ensure store ~oid ~init:(Store.Value.Int 0);
              if version > 0 then
                Store.Replica.apply store ~oid ~version ~value:Store.Value.Unit ~txn:1;
              match lease with
              | 1 -> ignore (Store.Replica.try_lock store ~oid ~txn)
              | 2 -> ignore (Store.Replica.try_lock store ~oid ~txn:42)
              | _ -> ()
            end)
          objects;
        Server.create ~node:0 ~store
      in
      let read =
        List.concat
          (List.mapi
             (fun oid (version, lock) -> if version >= 0 then [ (oid, version, lock) ] else [])
             rows)
      in
      let dataset =
        Messages.dataset_of_list
          (List.map (fun (oid, version, _) -> { Messages.oid; version; owner = 0 }) read)
      in
      let locked = List.filter (fun (_, _, lock) -> lock) read in
      let locks = List.map (fun (oid, _, _) -> oid) locked in
      let sequential =
        match
          Server.handle (replica ()) ~src:5
            (Messages.Commit_req { txn; dataset; locks; round = 1; peers = [] })
        with
        | Some (Messages.Vote { commit; lock_conflict }) -> (commit, lock_conflict)
        | Some _ | None -> QCheck.Test.fail_report "Commit_req: no vote"
      in
      let batched =
        match
          Server.handle (replica ()) ~src:5
            (Messages.Batch_commit_req
               {
                 txns = [| txn |];
                 rounds = [| 1 |];
                 ds_offsets = [| 0; Messages.dataset_len dataset |];
                 dataset;
                 wr_offsets = [| 0; List.length locks |];
                 writes =
                   Messages.writes_of_list
                     (List.map
                        (fun (oid, version, _) -> (oid, version + 1, Store.Value.Unit))
                        locked);
                 decided = [||];
               })
        with
        | Some (Messages.Batch_commit_rep { commits; conflicts }) ->
          (commits.(0), conflicts.(0))
        | Some _ | None -> QCheck.Test.fail_report "Batch_commit_req: no vote"
      in
      sequential = batched)

(* --- Oracle ------------------------------------------------------------- *)

let test_oracle_accepts_serial () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[ (1, 0) ]
    ~writes:[ (1, 1) ];
  Oracle.note_commit oracle ~txn:2 ~decision:20. ~window_start:15. ~reads:[ (1, 1) ]
    ~writes:[ (1, 2) ];
  Alcotest.(check bool) "serial history ok" true (Result.is_ok (Oracle.check oracle))

let test_oracle_rejects_stale_read () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 1) ];
  (* An *update* txn read version 0 but validated long after version 1. *)
  Oracle.note_commit oracle ~txn:2 ~decision:30. ~window_start:25. ~reads:[ (1, 0) ]
    ~writes:[ (2, 1) ];
  Alcotest.(check bool) "stale update read rejected" true
    (Result.is_error (Oracle.check oracle))

let test_oracle_read_only_snapshot_semantics () =
  (* A read-only txn may read versions that are stale in real time, as long
     as they form a consistent snapshot... *)
  let consistent = Oracle.create () in
  Oracle.note_commit consistent ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 1) ];
  Oracle.note_commit consistent ~txn:2 ~decision:30. ~window_start:25.
    ~reads:[ (1, 0); (2, 0) ] ~writes:[];
  Alcotest.(check bool) "consistent stale snapshot accepted" true
    (Result.is_ok (Oracle.check consistent));
  (* ... but versions that never coexisted are rejected. *)
  let skewed = Oracle.create () in
  Oracle.note_commit skewed ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 1) ];
  Oracle.note_commit skewed ~txn:2 ~decision:20. ~window_start:15. ~reads:[]
    ~writes:[ (2, 1) ];
  (* o1 still at version 0 (current only before t=10) together with o2 at
     version 1 (current only after t=20): impossible snapshot. *)
  Oracle.note_commit skewed ~txn:3 ~decision:30. ~window_start:25.
    ~reads:[ (1, 0); (2, 1) ] ~writes:[];
  Alcotest.(check bool) "inconsistent snapshot rejected" true
    (Result.is_error (Oracle.check skewed))

let test_oracle_rejects_version_gap () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 2) ];
  Alcotest.(check bool) "gap rejected" true (Result.is_error (Oracle.check oracle))

let test_oracle_rejects_double_write () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[] ~writes:[ (1, 1) ];
  Oracle.note_commit oracle ~txn:2 ~decision:12. ~window_start:6. ~reads:[] ~writes:[ (1, 1) ];
  Alcotest.(check bool) "double write rejected" true (Result.is_error (Oracle.check oracle))

let test_oracle_window_tolerance () =
  let oracle = Oracle.create () in
  (* Reader validated before the writer committed, decided after: legal. *)
  Oracle.note_commit oracle ~txn:1 ~decision:12. ~window_start:8. ~reads:[] ~writes:[ (1, 1) ];
  Oracle.note_commit oracle ~txn:2 ~decision:14. ~window_start:7. ~reads:[ (1, 0) ] ~writes:[];
  Alcotest.(check bool) "overlapping window ok" true (Result.is_ok (Oracle.check oracle))

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ rwset_add_find; vote_agreement ]

let suite =
  [
    Alcotest.test_case "dsl sequencing" `Quick test_dsl_sequencing;
    Alcotest.test_case "monad laws" `Quick test_monad_laws;
    Alcotest.test_case "ops count" `Quick test_ops_count;
    Alcotest.test_case "rwset merge/retag" `Quick test_rwset_merge;
    Alcotest.test_case "rqv paper example" `Quick test_rqv_paper_example;
    Alcotest.test_case "rqv valid dataset" `Quick test_rqv_valid_dataset;
    Alcotest.test_case "rqv min owner wins" `Quick test_rqv_min_owner_wins;
    Alcotest.test_case "rqv protected objects" `Quick test_rqv_protected_fails;
    Alcotest.test_case "server read + PR" `Quick test_server_read;
    Alcotest.test_case "server 2PC vote/lock/apply" `Quick test_server_commit_vote_and_apply;
    Alcotest.test_case "server stale commit denied" `Quick test_server_stale_commit_denied;
    Alcotest.test_case "server release" `Quick test_server_release;
    Alcotest.test_case "server stale-round release ignored" `Quick
      test_server_stale_release_ignored;
    Alcotest.test_case "oracle accepts serial" `Quick test_oracle_accepts_serial;
    Alcotest.test_case "oracle rejects stale read" `Quick test_oracle_rejects_stale_read;
    Alcotest.test_case "oracle read-only snapshot semantics" `Quick
      test_oracle_read_only_snapshot_semantics;
    Alcotest.test_case "oracle rejects version gap" `Quick test_oracle_rejects_version_gap;
    Alcotest.test_case "oracle rejects double write" `Quick test_oracle_rejects_double_write;
    Alcotest.test_case "oracle window tolerance" `Quick test_oracle_window_tolerance;
  ]
  @ qcheck_cases
