(** Agrawal–El Abbadi tree quorums with failure fallback.

    Write quorums take a node plus a majority of its children recursively at
    every level; read quorums take a majority of children at a configurable
    level ([read_level]), with [read_level = 0] being the root alone — the
    paper's Fig. 10 initial configuration.  A failed node is transparently
    replaced: for reads by a majority of its children (growing the quorum,
    which is exactly the paper's "+1 node per failure" behaviour when
    failures strike the tree top), for writes by *all* of its children
    (preserving pairwise write intersection).

    [salt] rotates which majority subset is chosen, so different client
    nodes can be assigned different-but-intersecting quorums; this is the
    load-balancing effect behind the initial throughput *rise* under
    failures in Fig. 10.

    Every returned quorum contains only alive nodes; [None] means no quorum
    is currently constructible (too many failures).

    Constructions are memoised per salt and keyed on a generation counter
    bumped whenever {!mark_failed}, {!revive} or {!set_members} actually
    changes the alive set or the view, so repeated quorum lookups between
    failure events are O(1); callers need no cache (or invalidation) of
    their own.

    The tree spans logical {e positions}; {!set_members} rebinds which
    physical node occupies each position, rebuilding the tree for the new
    member count.  Quorums always contain physical node ids drawn from the
    current member set; liveness flags and salts stay keyed by physical id
    across view changes. *)

type t

val create : ?arity:int -> ?read_level:int -> ?capacity:int -> nodes:int -> unit -> t
(** Defaults: ternary tree, [read_level = 1] (majority of the root's
    children, matching the paper's example R1 = [{n1, n2}]).  [capacity]
    (default [nodes]) bounds the physical node ids a later view may name —
    size it to the full machine pool when spare nodes can join. *)

val tree : t -> Tree.t
(** The current view's tree (rebuilt by {!set_members}). *)

val read_level : t -> int
val capacity : t -> int

val members : t -> int list
(** Physical nodes of the current view, ascending. *)

val is_member : t -> int -> bool
(** [is_member t node] is [List.mem node (members t)], without allocating. *)

val set_members : t -> int list -> unit
(** Install a new view: the quorum tree is rebuilt over the given member
    set (sorted, de-duplicated) and every memoised quorum is invalidated.
    Raises [Invalid_argument] on an empty view or an id outside
    [[0, capacity)]. *)

val mark_failed : t -> int -> unit
(** Record a (detected) fail-stop; subsequent quorum constructions avoid
    the node. *)

val revive : t -> int -> unit
val failed : t -> int list

val read_quorum : ?salt:int -> t -> int list option
(** Sorted, duplicate-free read quorum. *)

val write_quorum : ?salt:int -> t -> int list option
(** Sorted, duplicate-free write quorum. *)
