(** Hash tables keyed by [int].

    [Hashtbl.Make (Int)]: lookups hash and compare the key inline instead
    of through the polymorphic [caml_hash] / [compare] of the generic
    [Hashtbl].  [Int.hash] equals [Hashtbl.hash] on every int and the
    functor shares the generic table's bucket array, sizing and resize
    policy, so the same sequence of updates leaves both tables with the
    same layout: [iter] and [fold] visit the bindings in the same order. *)

include Hashtbl.S with type key = int
