(** Hash tables keyed by [int], hashed by identity.

    A key's bucket is the key itself ([hash x = x land max_int]) masked to
    the table size: no [caml_hash] mix and no polymorphic compare per
    lookup.  Keys on the message path are minted densely (rids, txn ids,
    oids), so consecutive keys land in distinct buckets.  Sparse keys that
    agree in their low bits share buckets and degrade lookups to a scan.

    No iteration is exported: bucket order depends on the hash, and
    keeping it out of the interface means it cannot reach any output. *)

type 'a t

val create : int -> 'a t
val clear : 'a t -> unit

val reset : 'a t -> unit
(** [clear], also shrinking the bucket array to its initial size. *)

val add : 'a t -> int -> 'a -> unit
(** Adds a binding, shadowing (not replacing) any earlier one. *)

val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val find : 'a t -> int -> 'a
val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val length : 'a t -> int
