(** A bounded set of ints that evicts in insertion order, with an int
    value per member.

    Once it holds [cap] members, adding a new one first evicts the oldest
    member.  Re-adding a present member changes neither the order nor the
    size.  It suits evidence that is only consulted within a bounded
    horizon: recently applied transactions, decided batches, ended
    transactions.

    The set is flat: members, values and their order live in [int]
    arrays.  An add allocates nothing, leaves no pointer for the GC to
    promote, and reports the member it evicted, so a caller can evict
    from a side table in the same step.  Storage grows by doubling up to
    [cap], so an idle set costs a few dozen words however large its cap.
    Nothing iterates the members, so hash order cannot reach any output. *)

type t

val none : int
(** [min_int]: what {!add} and {!replace} return when nothing was
    evicted.  It is not a valid member. *)

val create : int -> t
(** [create cap] is an empty set holding at most [cap] members.  Raises
    [Invalid_argument] unless [cap > 0]. *)

val add : t -> int -> int
(** [add t k] is [replace t k 0]: for sets whose values are unused. *)

val replace : t -> int -> int -> int
(** [replace t k v] binds [k] to [v].  A new [k] joins as the newest
    member, after evicting the oldest one if the set is full; the evicted
    member is returned, or {!none}.  A present [k] keeps its place and
    nothing is evicted.  Raises [Invalid_argument] if [k] is {!none}. *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** The value bound to a member, or [default] for a non-member. *)

val length : t -> int

val reset : t -> unit
(** Empty the set and shrink its storage to the initial size. *)
