type t = {
  (* The logical quorum tree spans *positions* [0, members); [members] maps
     each position to the physical node currently occupying it.  A view
     change ([set_members]) rebuilds the tree for the new member count and
     rebinds the positions, so quorums are always drawn from the current
     member set; [alive] and the per-salt caches stay keyed by physical
     node id (capacity-sized) because failure detection and callers speak
     physical ids. *)
  mutable tree : Tree.t;
  arity : int option;
  read_level : int;
  capacity : int;
  alive : bool array;
  mutable members : int array; (* position -> physical node *)
  (* Quorum construction is deterministic given [alive], the member map and
     the salt, so results are memoised per salt and invalidated wholesale
     whenever either actually changes ([generation] bump).  Unconstructible
     ([None]) results are cached too: [revive] bumps the generation, so a
     recovery always clears them. *)
  mutable generation : int;
  mutable cache_generation : int;
  read_cache : int list option option array;
  write_cache : int list option option array;
}

let create ?arity ?(read_level = 1) ?capacity ~nodes () =
  let capacity = match capacity with Some c -> Stdlib.max c nodes | None -> nodes in
  {
    tree = Tree.create ?arity ~nodes ();
    arity;
    read_level;
    capacity;
    alive = Array.make capacity true;
    members = Array.init nodes Fun.id;
    generation = 0;
    cache_generation = 0;
    read_cache = Array.make capacity None;
    write_cache = Array.make capacity None;
  }

let tree t = t.tree
let read_level t = t.read_level
let capacity t = t.capacity
let members t = Array.to_list t.members

let rec member_from members node i =
  i < Array.length members && (members.(i) = node || member_from members node (i + 1))

let is_member t node = member_from t.members node 0

let set_members t nodes =
  let arr = Array.of_list (List.sort_uniq Int.compare nodes) in
  if Array.length arr = 0 then invalid_arg "Tree_quorum.set_members: empty view";
  Array.iter
    (fun n ->
      if n < 0 || n >= t.capacity then
        invalid_arg
          (Printf.sprintf "Tree_quorum.set_members: node %d outside capacity %d" n
             t.capacity))
    arr;
  t.members <- arr;
  t.tree <- Tree.create ?arity:t.arity ~nodes:(Array.length arr) ();
  t.generation <- t.generation + 1

let mark_failed t node =
  if t.alive.(node) then begin
    t.alive.(node) <- false;
    t.generation <- t.generation + 1
  end

let revive t node =
  if not t.alive.(node) then begin
    t.alive.(node) <- true;
    t.generation <- t.generation + 1
  end

let failed t =
  let acc = ref [] in
  for i = Array.length t.alive - 1 downto 0 do
    if not t.alive.(i) then acc := i :: !acc
  done;
  !acc

let dedup_sorted nodes = List.sort_uniq Int.compare nodes

(* Position-level liveness / identity. *)
let pos_alive t pos = t.alive.(t.members.(pos))
let pos_node t pos = t.members.(pos)

(* Rotate a list left by [salt mod length]; used to spread majority choices
   across clients. *)
let rotate salt xs =
  match xs with
  | [] -> []
  | _ ->
    let n = List.length xs in
    let s = ((salt mod n) + n) mod n in
    let rec split i acc rest =
      if i = 0 then rest @ List.rev acc
      else match rest with [] -> List.rev acc | x :: tl -> split (i - 1) (x :: acc) tl
    in
    split s [] xs

(* Try to build quorums for [needed] children out of [candidates], in order,
   backtracking across candidates whose subtree cannot produce a quorum. *)
let rec take_majority build needed candidates acc =
  if needed = 0 then Some acc
  else
    match candidates with
    | [] -> None
    | c :: rest ->
      begin
        match build c with
        | Some q ->
          begin
            match take_majority build (needed - 1) rest (q :: acc) with
            | Some _ as result -> result
            | None -> take_majority build needed rest acc
          end
        | None -> take_majority build needed rest acc
      end

let majority_of_children t salt node build =
  let children = Tree.children t.tree node in
  match children with
  | [] -> None
  | _ ->
    let needed = (List.length children / 2) + 1 in
    begin
      match take_majority build needed (rotate salt children) [] with
      | Some quorums -> Some (List.concat quorums)
      | None -> None
    end

(* Read quorum rooted at position [node], targeting [level] more descents.
   Above the target level the node itself is not part of the quorum, so its
   liveness is irrelevant; at the target level a failed node is substituted
   by a majority of its children (one level deeper), which is how the quorum
   grows by one per failure in the paper's Fig. 10 scenario. *)
let rec read_at t salt node level =
  if level <= 0 then
    if pos_alive t node then Some [ pos_node t node ]
    else majority_of_children t salt node (fun c -> read_at t salt c 0)
  else if Tree.is_leaf t.tree node then
    if pos_alive t node then Some [ pos_node t node ] else None
  else majority_of_children t salt node (fun c -> read_at t salt c (level - 1))

let cached cache t salt build =
  if salt < 0 || salt >= Array.length cache then build ()
  else begin
    if t.cache_generation <> t.generation then begin
      Array.fill t.read_cache 0 (Array.length t.read_cache) None;
      Array.fill t.write_cache 0 (Array.length t.write_cache) None;
      t.cache_generation <- t.generation
    end;
    match cache.(salt) with
    | Some result -> result
    | None ->
      let result = build () in
      cache.(salt) <- Some result;
      result
  end

let read_quorum ?(salt = 0) t =
  cached t.read_cache t salt (fun () ->
      Option.map dedup_sorted (read_at t salt (Tree.root t.tree) t.read_level))

(* Write quorum: node + majority of children recursively; a failed node is
   replaced by the write quorums of *all* its children.

   The recursion is three-valued.  A subtree with no alive write spine at
   all — a dead leaf, or a dead node whose subtrees are all in that state —
   contributes [Empty]: no read quorum can be built through it either, so
   omitting it cannot break read/write intersection.  An *alive* node that
   cannot assemble a majority of child quorums [Poisons] the whole
   construction: a read quorum consisting of just that node exists, so a
   write quorum must not silently skip its subtree. *)
type write_result = Poisoned | Built of int list

let rec write_at t salt node =
  if Tree.is_leaf t.tree node then
    if pos_alive t node then Built [ pos_node t node ] else Built []
  else if pos_alive t node then begin
    let build c = match write_at t salt c with Poisoned -> None | Built q -> Some q in
    match majority_of_children t salt node build with
    | Some q -> Built (pos_node t node :: q)
    | None -> Poisoned
  end
  else begin
    (* Dead interior node: take every child's write quorum. *)
    let rec union acc = function
      | [] -> Built acc
      | c :: rest ->
        begin
          match write_at t salt c with
          | Poisoned -> Poisoned
          | Built q -> union (q @ acc) rest
        end
    in
    union [] (Tree.children t.tree node)
  end

let write_quorum ?(salt = 0) t =
  cached t.write_cache t salt (fun () ->
      match write_at t salt (Tree.root t.tree) with
      | Poisoned -> None
      | Built [] -> None (* nothing alive at all *)
      | Built quorum -> Some (dedup_sorted quorum))
