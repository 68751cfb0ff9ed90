(* Members live in a ring in insertion order; an open-addressing table
   maps each member to its ring index.  The table uses linear probing with
   Fibonacci hashing and is kept at most half full.  Removal is backward
   shift, so there are no tombstones and a probe always ends at the first
   empty slot.  Everything is an [int array]: an add writes ints only, so
   it allocates nothing and leaves nothing for the minor GC to promote. *)

let none = min_int

type t = {
  cap : int;
  mutable ring : int array; (* members, oldest at [head]; a power of two *)
  mutable vals : int array; (* value of [ring.(i)] *)
  mutable head : int;
  mutable len : int;
  mutable table : int array; (* ring index, or -1 when the slot is empty *)
  mutable shift : int; (* 63 - log2 (Array.length table) *)
}

let initial_ring = 8

(* 2^62 / golden ratio, made odd: multiplying (mod 2^63) spreads dense
   ids evenly over the table's top bits. *)
let golden = 0x278DDE6E5FD29F05

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let make cap ring_size =
  {
    cap;
    ring = Array.make ring_size 0;
    vals = Array.make ring_size 0;
    head = 0;
    len = 0;
    table = Array.make (2 * ring_size) (-1);
    shift = 63 - log2 (2 * ring_size);
  }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create cap =
  if cap <= 0 then invalid_arg "Fifo_set.create: cap must be positive";
  make cap (pow2_at_least (min cap initial_ring) 1)

let[@inline] home t k = (k * golden) lsr t.shift

(* The table slot holding [k], or the empty slot that ends its probe. *)
let probe t k =
  let table = t.table and ring = t.ring in
  let mask = Array.length table - 1 in
  let s = ref (home t k) in
  while
    let r = table.(!s) in
    r >= 0 && ring.(r) <> k
  do
    s := (!s + 1) land mask
  done;
  !s

(* Empty slot [s], then pull back every later entry of its cluster that
   may legally sit there: one whose home is not cyclically in (hole, j]. *)
let delete_at t s =
  let table = t.table and ring = t.ring in
  let mask = Array.length table - 1 in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while table.(!j) >= 0 do
    let r = table.(!j) in
    if (!j - home t ring.(r)) land mask >= (!j - !hole) land mask then begin
      table.(!hole) <- r;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  table.(!hole) <- -1

let evict_oldest t =
  let k = t.ring.(t.head) in
  delete_at t (probe t k);
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  k

(* Double the ring (unwrapping it to start at 0) and the table, and
   rebuild the table from the ring. *)
let grow t =
  let old_ring = t.ring and old_vals = t.vals and old_head = t.head in
  let old_mask = Array.length old_ring - 1 in
  let g = make t.cap (2 * Array.length old_ring) in
  for i = 0 to t.len - 1 do
    let j = (old_head + i) land old_mask in
    g.ring.(i) <- old_ring.(j);
    g.vals.(i) <- old_vals.(j)
  done;
  t.ring <- g.ring;
  t.vals <- g.vals;
  t.head <- 0;
  t.table <- g.table;
  t.shift <- g.shift;
  for i = 0 to t.len - 1 do
    t.table.(probe t t.ring.(i)) <- i
  done

let replace t k v =
  let s = probe t k in
  let r = t.table.(s) in
  if r >= 0 then begin
    t.vals.(r) <- v;
    none
  end
  else begin
    if k = none then invalid_arg "Fifo_set: min_int is not a valid member";
    let evicted = if t.len = t.cap then evict_oldest t else none in
    (* An eviction or a growth moves entries: then find [k]'s slot afresh. *)
    let s =
      if evicted <> none then probe t k
      else if t.len = Array.length t.ring then begin
        grow t;
        probe t k
      end
      else s
    in
    let i = (t.head + t.len) land (Array.length t.ring - 1) in
    t.ring.(i) <- k;
    t.vals.(i) <- v;
    t.table.(s) <- i;
    t.len <- t.len + 1;
    evicted
  end

let add t k = replace t k 0
let mem t k = t.table.(probe t k) >= 0

let find t k ~default =
  let r = t.table.(probe t k) in
  if r >= 0 then t.vals.(r) else default

let length t = t.len

let reset t =
  let f = create t.cap in
  t.ring <- f.ring;
  t.vals <- f.vals;
  t.head <- 0;
  t.len <- 0;
  t.table <- f.table;
  t.shift <- f.shift
