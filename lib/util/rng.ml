(* The SplitMix64 state lives unboxed in 8 bytes.  With [mix64] and
   [int64] inlined, a draw reads and writes raw int64s: it allocates no
   box and does no [caml_modify] on the generator. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 mixing function (Steele, Lea, Flood; JDK SplittableRandom). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let rng = Bytes.create 8 in
  Bytes.set_int64_ne rng 0 state;
  rng

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 rng =
  let state = Int64.add (Bytes.get_int64_ne rng 0) golden_gamma in
  Bytes.set_int64_ne rng 0 state;
  mix64 state

let split rng = of_state (int64 rng)

let int rng bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (int64 rng) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let[@inline] float rng bound =
  let raw = Int64.to_float (Int64.shift_right_logical (int64 rng) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool rng = Int64.logand (int64 rng) 1L = 1L

let chance rng p =
  if p <= 0. then false else if p >= 1. then true else float rng 1.0 < p

let exponential rng ~mean =
  let u = Stdlib.max 1e-12 (float rng 1.0) in
  -.mean *. log u

let pick rng arr =
  assert (Array.length arr > 0);
  arr.(int rng (Array.length arr))

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Inverse-CDF Zipf by bisection over the cumulative weights.  n is small in
   our workloads (<= tens of thousands) so we precompute lazily per call
   bound; callers that care cache the result via partial application is not
   possible with mutable rng, so we memoise on (n, skew).

   The memo is the one piece of module-level mutable state in the whole
   library, so it lives in domain-local storage: each domain of the
   parallel harness keeps its own and there is no cross-domain sharing
   (and no locking on this per-draw path).  The cached array is a pure
   function of (n, skew), so every domain computes identical values —
   determinism is unaffected.  A workload draws from one distribution
   again and again, so the last (n, skew) is remembered in front of the
   table, and a draw then neither allocates nor hashes a boxed key. *)
type zipf_memo = {
  tables : (int * float, float array) Hashtbl.t;
  mutable last_n : int;
  mutable last_skew : float;
  mutable last_cdf : float array;
}

let zipf_memo : zipf_memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tables = Hashtbl.create 7; last_n = 0; last_skew = 0.; last_cdf = [||] })

let zipf_table tables n skew =
  match Hashtbl.find_opt tables (n, skew) with
  | Some cdf -> cdf
  | None ->
    let weights = Array.init n (fun i -> 1.0 /. ((Float.of_int (i + 1)) ** skew)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun w ->
          acc := !acc +. (w /. total);
          !acc)
        weights
    in
    Hashtbl.replace tables (n, skew) cdf;
    cdf

(* [last_n = 0] until the first draw, and [zipf] never asks for n = 0. *)
let zipf_cdf n skew =
  let memo = Domain.DLS.get zipf_memo in
  if n = memo.last_n && Float.equal skew memo.last_skew then memo.last_cdf
  else begin
    let cdf = zipf_table memo.tables n skew in
    memo.last_n <- n;
    memo.last_skew <- skew;
    memo.last_cdf <- cdf;
    cdf
  end

let zipf rng ~n ~skew =
  assert (n > 0);
  if skew <= 0. then int rng n
  else begin
    let cdf = zipf_cdf n skew in
    let u = float rng 1.0 in
    let rec bisect lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
      end
    in
    bisect 0 (n - 1)
  end
