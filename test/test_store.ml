(* Value codecs, replica store semantics (versioning, locks, PR/PW),
   multiversion history. *)

open Store

let value_testable = Alcotest.testable Value.pp Value.equal

let test_value_accessors () =
  Alcotest.(check int) "int" 5 (Value.to_int (Value.Int 5));
  Alcotest.(check bool) "bool" true (Value.to_bool (Value.Bool true));
  Alcotest.(check string) "str" "x" (Value.to_str (Value.Str "x"));
  Alcotest.check value_testable "field" (Value.Int 2)
    (Value.field (Value.List [ Value.Int 1; Value.Int 2 ]) 1);
  Alcotest.check value_testable "with_field"
    (Value.List [ Value.Int 1; Value.Int 9 ])
    (Value.with_field (Value.List [ Value.Int 1; Value.Int 2 ]) 1 (Value.Int 9));
  Alcotest.(check (option int)) "int_opt none" None (Value.int_opt Value.Unit);
  Alcotest.check_raises "shape error"
    (Invalid_argument "Value: expected Int, got true")
    (fun () -> ignore (Value.to_int (Value.Bool true)))

let value_equal_reflexive =
  let rec gen_value depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof [ return Value.Unit; map (fun i -> Value.Int i) int; map (fun b -> Value.Bool b) bool ]
      else
        oneof
          [
            map (fun i -> Value.Int i) int;
            map (fun s -> Value.Str s) string_small;
            map (fun l -> Value.List l) (list_size (int_range 0 4) (gen_value (depth - 1)));
          ])
  in
  QCheck.Test.make ~name:"value equality is reflexive" ~count:200
    (QCheck.make (gen_value 3))
    (fun v -> Value.equal v v)

let test_replica_versioning () =
  let store = Replica.create () in
  Replica.ensure store ~oid:1 ~init:(Value.Int 0);
  Replica.ensure store ~oid:1 ~init:(Value.Int 99);
  Alcotest.check value_testable "ensure is idempotent" (Value.Int 0) (Replica.get store 1).value;
  Alcotest.(check int) "initial version" 0 (Replica.version store 1);
  Replica.apply store ~oid:1 ~version:3 ~value:(Value.Int 30) ~txn:7;
  Alcotest.(check int) "applied version" 3 (Replica.version store 1);
  (* Stale apply from a lagging replica is ignored. *)
  Replica.apply store ~oid:1 ~version:2 ~value:(Value.Int 20) ~txn:8;
  Alcotest.(check int) "stale apply ignored" 3 (Replica.version store 1);
  Alcotest.check value_testable "value kept" (Value.Int 30) (Replica.get store 1).value;
  Replica.install store ~oid:1 ~init:(Value.Int 5);
  Alcotest.(check int) "install resets" 0 (Replica.version store 1)

let test_replica_locks () =
  let store = Replica.create () in
  Replica.ensure store ~oid:1 ~init:Value.Unit;
  Alcotest.(check bool) "lock free" true (Replica.try_lock store ~oid:1 ~txn:10);
  Alcotest.(check bool) "re-lock by owner" true (Replica.try_lock store ~oid:1 ~txn:10);
  Alcotest.(check bool) "other txn denied" false (Replica.try_lock store ~oid:1 ~txn:11);
  Alcotest.(check bool) "protected against other" true
    (Replica.is_protected store ~oid:1 ~against:11);
  Alcotest.(check bool) "not protected against owner" false
    (Replica.is_protected store ~oid:1 ~against:10);
  Replica.unlock store ~oid:1 ~txn:11;
  Alcotest.(check bool) "foreign unlock ignored" true
    (Replica.is_protected store ~oid:1 ~against:11);
  Replica.unlock store ~oid:1 ~txn:10;
  Alcotest.(check bool) "owner unlock works" true (Replica.try_lock store ~oid:1 ~txn:11);
  (* Apply releases the committing transaction's lock. *)
  Replica.apply store ~oid:1 ~version:1 ~value:(Value.Int 1) ~txn:11;
  Alcotest.(check bool) "apply releases lock" true (Replica.try_lock store ~oid:1 ~txn:12)

let test_replica_pr_pw () =
  let store = Replica.create () in
  Replica.ensure store ~oid:1 ~init:Value.Unit;
  Replica.add_reader store ~oid:1 ~txn:5;
  Replica.add_reader store ~oid:1 ~txn:5;
  Replica.add_writer store ~oid:1 ~txn:6;
  Alcotest.(check (list int)) "readers deduped" [ 5 ] (Replica.readers store 1);
  Alcotest.(check (list int)) "writers" [ 6 ] (Replica.writers store 1);
  Replica.remove_txn store ~oid:1 ~txn:5;
  Alcotest.(check (list int)) "reader removed" [] (Replica.readers store 1);
  (* The lists are bounded: flooding evicts the oldest entries. *)
  for txn = 0 to 99 do
    Replica.add_reader store ~oid:1 ~txn
  done;
  Alcotest.(check bool) "bounded" true (List.length (Replica.readers store 1) <= 64)

(* Copies live in a dense array indexed by oid; a sharded replica hosts a
   sparse subset and leaves the rest empty. *)
let test_replica_sparse_slots () =
  let store = Replica.create () in
  List.iter (fun oid -> Replica.install store ~oid ~init:(Value.Int oid)) [ 9; 2; 5 ];
  Alcotest.(check (list int)) "hosted" [ 2; 5; 9 ]
    (List.filter (Replica.mem store) (List.init 12 Fun.id));
  List.iter
    (fun oid ->
      Alcotest.(check bool) (Printf.sprintf "find %d" oid) true
        (Option.is_none (Replica.find store oid));
      Alcotest.(check bool) (Printf.sprintf "mem %d" oid) false (Replica.mem store oid))
    [ 3 (* never installed, in range *); 10; 1_000_000 (* past the end *); -1 ];
  Alcotest.check_raises "get of an empty slot"
    (Invalid_argument "Store.get: unknown object 3")
    (fun () -> ignore (Replica.get store 3));
  Alcotest.check_raises "get past the end"
    (Invalid_argument "Store.get: unknown object 1000")
    (fun () -> ignore (Replica.get store 1000));
  Alcotest.check_raises "version of a negative oid"
    (Invalid_argument "Store.get: unknown object -1")
    (fun () -> ignore (Replica.version store (-1)));
  (* Growing past the current end keeps the copies already installed. *)
  Replica.apply store ~oid:9 ~version:4 ~value:(Value.Int 90) ~txn:1;
  Replica.sync_copy store ~oid:300 ~version:7 ~value:(Value.Int 3);
  Replica.install store ~oid:5000 ~init:(Value.Int 50);
  Alcotest.(check int) "synced past the end" 7 (Replica.version store 300);
  Alcotest.(check int) "installed past the end" 0 (Replica.version store 5000);
  Alcotest.(check int) "kept across growth" 4 (Replica.version store 9);
  Alcotest.check value_testable "value kept across growth" (Value.Int 2)
    (Replica.get store 2).value;
  Alcotest.(check bool) "gap stays empty" false (Replica.mem store 299);
  Alcotest.(check (list (triple int int value_testable)))
    "dump: each hosted oid once, ascending"
    [
      (2, 0, Value.Int 2);
      (5, 0, Value.Int 5);
      (9, 4, Value.Int 90);
      (300, 7, Value.Int 3);
      (5000, 0, Value.Int 50);
    ]
    (Replica.dump store)

let test_replica_held_leases_order () =
  let store = Replica.create () in
  List.iter (fun oid -> Replica.install store ~oid ~init:Value.Unit) [ 40; 3; 17; 8 ];
  List.iter
    (fun (oid, txn) -> ignore (Replica.try_lock ~expires:100. store ~oid ~txn))
    [ (40, 1); (3, 2); (17, 1) ];
  Alcotest.(check (list (triple int int (float 0.)))) "ascending oid"
    [ (3, 2, 100.); (17, 1, 100.); (40, 1, 100.) ]
    (Replica.held_leases store)

let test_replica_reset_transients () =
  let store = Replica.create () in
  List.iter (fun oid -> Replica.install store ~oid ~init:(Value.Int 0)) [ 1; 6 ];
  Replica.apply store ~oid:6 ~version:2 ~value:(Value.Int 12) ~txn:3;
  Alcotest.(check bool) "lock" true (Replica.try_lock store ~oid:1 ~txn:4);
  Alcotest.(check bool) "lock" true (Replica.try_lock store ~oid:6 ~txn:5);
  Replica.add_reader store ~oid:1 ~txn:7;
  Replica.add_writer store ~oid:6 ~txn:8;
  Replica.reset_transients store;
  Alcotest.(check (list (triple int int (float 0.)))) "no leases" []
    (Replica.held_leases store);
  Alcotest.(check (list int)) "lease index cleared" [] (Replica.leased_oids store ~txn:4);
  Alcotest.(check (list int)) "readers cleared" [] (Replica.readers store 1);
  Alcotest.(check (list int)) "writers cleared" [] (Replica.writers store 6);
  Alcotest.(check bool) "apply evidence cleared" false (Replica.was_applied store ~txn:3);
  Alcotest.(check int) "version kept" 2 (Replica.version store 6);
  Alcotest.check value_testable "value kept" (Value.Int 12) (Replica.get store 6).value;
  Alcotest.(check bool) "relockable" true (Replica.try_lock store ~oid:1 ~txn:9)

(* The applied-txn evidence keeps the last 4096 distinct txns: the
   4097th forgets the oldest, and its retained rows go in the same step.
   Re-applying a remembered txn neither reorders nor evicts. *)
let test_replica_applied_horizon () =
  let store = Replica.create () in
  Replica.install store ~oid:1 ~init:(Value.Int 0);
  let apply txn =
    Replica.retain_writes store ~txn [ (1, txn, Value.Int txn) ];
    Replica.apply store ~oid:1 ~version:txn ~value:(Value.Int txn) ~txn
  in
  for txn = 1 to 4096 do
    apply txn
  done;
  apply 1;
  Alcotest.(check bool) "oldest still applied" true (Replica.was_applied store ~txn:1);
  Alcotest.(check int) "oldest rows kept" 1 (List.length (Replica.retained_writes store ~txn:1));
  apply 4097;
  Alcotest.(check bool) "oldest forgotten" false (Replica.was_applied store ~txn:1);
  Alcotest.(check (list (triple int int value_testable))) "oldest rows forgotten" []
    (Replica.retained_writes store ~txn:1);
  Alcotest.(check bool) "second kept" true (Replica.was_applied store ~txn:2);
  Alcotest.(check int) "second rows kept" 1 (List.length (Replica.retained_writes store ~txn:2));
  Alcotest.(check bool) "newest applied" true (Replica.was_applied store ~txn:4097);
  apply 1;
  Alcotest.(check bool) "re-added at the tail" true (Replica.was_applied store ~txn:1);
  Alcotest.(check bool) "second now forgotten" false (Replica.was_applied store ~txn:2);
  Alcotest.(check (list (triple int int value_testable))) "second rows forgotten" []
    (Replica.retained_writes store ~txn:2)

let test_multiversion () =
  let mv = Multiversion.create ~history_limit:3 () in
  Multiversion.ensure mv ~oid:1 ~init:(Value.Int 0);
  Alcotest.(check int) "initial version" 0 (Multiversion.version mv ~oid:1);
  Multiversion.commit mv ~oid:1 ~version:1 ~value:(Value.Int 10) ~time:10.;
  Multiversion.commit mv ~oid:1 ~version:2 ~value:(Value.Int 20) ~time:20.;
  Multiversion.commit mv ~oid:1 ~version:2 ~value:(Value.Int 99) ~time:25.;
  Alcotest.(check int) "duplicate version ignored" 2 (Multiversion.version mv ~oid:1);
  Alcotest.check value_testable "latest" (Value.Int 20) (snd (Multiversion.latest mv ~oid:1));
  (* Snapshot reads. *)
  begin
    match Multiversion.at_or_before mv ~oid:1 ~time:15. with
    | Some (1, v) -> Alcotest.check value_testable "snapshot at 15" (Value.Int 10) v
    | Some (n, _) -> Alcotest.failf "wrong version %d" n
    | None -> Alcotest.fail "history missing"
  end;
  (* Trimming: the limit is 3 versions, so after two more commits the
     oldest snapshots become unreadable. *)
  Multiversion.commit mv ~oid:1 ~version:3 ~value:(Value.Int 30) ~time:30.;
  Multiversion.commit mv ~oid:1 ~version:4 ~value:(Value.Int 40) ~time:40.;
  Alcotest.(check (option (pair int value_testable))) "trimmed snapshot" None
    (Multiversion.at_or_before mv ~oid:1 ~time:5.)

let suite =
  [
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "replica versioning" `Quick test_replica_versioning;
    Alcotest.test_case "replica locks" `Quick test_replica_locks;
    Alcotest.test_case "replica PR/PW lists" `Quick test_replica_pr_pw;
    Alcotest.test_case "replica sparse slots" `Quick test_replica_sparse_slots;
    Alcotest.test_case "replica held leases order" `Quick test_replica_held_leases_order;
    Alcotest.test_case "replica reset transients" `Quick test_replica_reset_transients;
    Alcotest.test_case "replica applied horizon" `Quick test_replica_applied_horizon;
    Alcotest.test_case "multiversion history" `Quick test_multiversion;
  ]
  @ [ QCheck_alcotest.to_alcotest value_equal_reflexive ]
