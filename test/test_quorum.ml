(* Tree structure, tree-quorum construction, the paper's Fig. 3 example,
   and property-based verification of the intersection properties that
   1-copy equivalence rests on. *)

let test_tree_shape () =
  let tree = Quorum.Tree.create ~nodes:13 () in
  Alcotest.(check int) "root" 0 (Quorum.Tree.root tree);
  Alcotest.(check (list int)) "children of root" [ 1; 2; 3 ] (Quorum.Tree.children tree 0);
  Alcotest.(check (list int)) "children of n2" [ 7; 8; 9 ] (Quorum.Tree.children tree 2);
  Alcotest.(check (option int)) "parent of n7" (Some 2) (Quorum.Tree.parent tree 7);
  Alcotest.(check (option int)) "root has no parent" None (Quorum.Tree.parent tree 0);
  Alcotest.(check bool) "n12 is leaf" true (Quorum.Tree.is_leaf tree 12);
  Alcotest.(check bool) "n2 is not leaf" false (Quorum.Tree.is_leaf tree 2);
  Alcotest.(check int) "depth of n9" 2 (Quorum.Tree.depth tree 9);
  Alcotest.(check int) "height" 2 (Quorum.Tree.height tree);
  Alcotest.(check (list int)) "level 1" [ 1; 2; 3 ] (Quorum.Tree.level tree 1);
  Alcotest.(check (list int)) "level 2" [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
    (Quorum.Tree.level tree 2)

(* The paper's Fig. 3: 13 nodes, read quorum {n1, n2} at level 1, write
   quorum {n0, n2, n3, n8, n9, n11, n12} (root + majority of children +
   majority of grandchildren under each). *)
let test_paper_example_shapes () =
  let tq = Quorum.Tree_quorum.create ~nodes:13 ~read_level:1 () in
  begin
    match Quorum.Tree_quorum.read_quorum ~salt:0 tq with
    | Some quorum ->
      Alcotest.(check int) "read quorum size" 2 (List.length quorum);
      Alcotest.(check bool) "read quorum from level 1" true
        (List.for_all (fun n -> List.mem n [ 1; 2; 3 ]) quorum)
    | None -> Alcotest.fail "no read quorum"
  end;
  match Quorum.Tree_quorum.write_quorum ~salt:0 tq with
  | Some quorum ->
    Alcotest.(check int) "write quorum size" 7 (List.length quorum);
    Alcotest.(check bool) "contains root" true (List.mem 0 quorum)
  | None -> Alcotest.fail "no write quorum"

let test_read_level_zero_is_root () =
  let tq = Quorum.Tree_quorum.create ~nodes:28 ~read_level:0 () in
  Alcotest.(check (option (list int))) "root alone" (Some [ 0 ])
    (Quorum.Tree_quorum.read_quorum ~salt:5 tq)

let test_quorum_growth_under_failures () =
  (* The Fig. 10 mechanism: failing inside the read quorum grows it by one. *)
  let tq = Quorum.Tree_quorum.create ~nodes:28 ~read_level:0 () in
  let size () =
    match Quorum.Tree_quorum.read_quorum ~salt:0 tq with
    | Some q -> List.length q
    | None -> -1
  in
  Alcotest.(check int) "initial" 1 (size ());
  Quorum.Tree_quorum.mark_failed tq 0;
  Alcotest.(check int) "after root failure" 2 (size ());
  let next_victim () =
    match Quorum.Tree_quorum.read_quorum ~salt:0 tq with
    | Some (v :: _) -> v
    | Some [] | None -> Alcotest.fail "quorum vanished"
  in
  let v = next_victim () in
  Quorum.Tree_quorum.mark_failed tq v;
  Alcotest.(check int) "after second failure" 3 (size ())

let test_failed_nodes_excluded () =
  let tq = Quorum.Tree_quorum.create ~nodes:13 () in
  Quorum.Tree_quorum.mark_failed tq 1;
  Quorum.Tree_quorum.mark_failed tq 8;
  let check_quorum label = function
    | Some q ->
      Alcotest.(check bool) (label ^ " excludes failed") true
        (Quorum.Check.all_alive ~failed:[ 1; 8 ] q)
    | None -> Alcotest.fail (label ^ " not constructible")
  in
  check_quorum "read" (Quorum.Tree_quorum.read_quorum ~salt:3 tq);
  check_quorum "write" (Quorum.Tree_quorum.write_quorum ~salt:3 tq)

let test_revive () =
  let tq = Quorum.Tree_quorum.create ~nodes:13 ~read_level:0 () in
  Quorum.Tree_quorum.mark_failed tq 0;
  Alcotest.(check (list int)) "failed recorded" [ 0 ] (Quorum.Tree_quorum.failed tq);
  Quorum.Tree_quorum.revive tq 0;
  Alcotest.(check (option (list int))) "root back" (Some [ 0 ])
    (Quorum.Tree_quorum.read_quorum tq)

(* Property: for random sizes, read levels, salts and failure sets, any
   constructible read quorum intersects any constructible write quorum, and
   write quorums pairwise intersect. *)
let intersection_property =
  let gen =
    QCheck.Gen.(
      let* nodes = int_range 1 40 in
      let* read_level = int_range 0 3 in
      let* salts = list_size (int_range 2 5) (int_range 0 1000) in
      let* failures = list_size (int_range 0 5) (int_range 0 (nodes - 1)) in
      return (nodes, read_level, salts, failures))
  in
  QCheck.Test.make ~name:"tree quorums intersect under failures" ~count:500
    (QCheck.make gen) (fun (nodes, read_level, salts, failures) ->
      let tq = Quorum.Tree_quorum.create ~nodes ~read_level () in
      List.iter (Quorum.Tree_quorum.mark_failed tq) failures;
      let reads = List.filter_map (fun salt -> Quorum.Tree_quorum.read_quorum ~salt tq) salts in
      let writes =
        List.filter_map (fun salt -> Quorum.Tree_quorum.write_quorum ~salt tq) salts
      in
      Quorum.Check.read_write_intersection ~reads ~writes
      && Quorum.Check.write_write_intersection ~writes
      && List.for_all (Quorum.Check.all_alive ~failed:failures) (reads @ writes))

(* Regression: the Fig. 10 victim set on 28 nodes includes a dead *leaf*
   (node 13) under a chain of dead interior nodes; the write quorum must
   still be constructible (the dead leaf's subtree contributes nothing, and
   no read quorum can be built through it either). *)
let test_write_quorum_survives_dead_leaf () =
  let tq = Quorum.Tree_quorum.create ~nodes:28 ~read_level:0 () in
  List.iter (Quorum.Tree_quorum.mark_failed tq) [ 0; 1; 2; 4; 5; 7; 8; 13 ];
  match (Quorum.Tree_quorum.write_quorum ~salt:0 tq, Quorum.Tree_quorum.read_quorum ~salt:0 tq)
  with
  | Some wq, Some rq ->
    Alcotest.(check bool) "write quorum alive-only" true
      (Quorum.Check.all_alive ~failed:[ 0; 1; 2; 4; 5; 7; 8; 13 ] wq);
    Alcotest.(check bool) "read/write intersect" true (Quorum.Check.intersects rq wq)
  | None, _ -> Alcotest.fail "write quorum not constructible"
  | _, None -> Alcotest.fail "read quorum not constructible"

let test_check_helpers () =
  Alcotest.(check bool) "intersects" true (Quorum.Check.intersects [ 1; 3; 5 ] [ 2; 3 ]);
  Alcotest.(check bool) "disjoint" false (Quorum.Check.intersects [ 1; 2 ] [ 3; 4 ]);
  Alcotest.(check bool) "empty never intersects" false (Quorum.Check.intersects [] [ 1 ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ intersection_property ]

let suite =
  [
    Alcotest.test_case "ternary tree shape (paper Fig. 3)" `Quick test_tree_shape;
    Alcotest.test_case "paper example quorum shapes" `Quick test_paper_example_shapes;
    Alcotest.test_case "read level 0 is the root" `Quick test_read_level_zero_is_root;
    Alcotest.test_case "quorum grows by one per failure" `Quick test_quorum_growth_under_failures;
    Alcotest.test_case "failed nodes excluded" `Quick test_failed_nodes_excluded;
    Alcotest.test_case "revive restores quorums" `Quick test_revive;
    Alcotest.test_case "write quorum survives dead leaf" `Quick
      test_write_quorum_survives_dead_leaf;
    Alcotest.test_case "check helpers" `Quick test_check_helpers;
  ]
  @ qcheck_cases
