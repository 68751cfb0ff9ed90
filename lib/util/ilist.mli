(** Int lists on the message path. *)

val mem : int -> int list -> bool
(** [List.mem] for ints: compares with [Int.equal] rather than the
    polymorphic [compare], and allocates nothing. *)
