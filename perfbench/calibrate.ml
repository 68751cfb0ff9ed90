(* Host-speed calibration.

   The benchmark shares its machine: the same workload's wall time was seen
   to drift by a factor of two within seconds, with no steal time and no
   other process on its core.  A short fixed reference loop, timed between
   every two slices of the measured window, tracks that drift; wall times
   are reported scaled to the loop's [reference] time.

   The loop uses the standard library only, so no change to the program
   under test moves it.  It is shaped like the simulator's hot path: a
   binary heap of event records holding closures, a persistent map updated
   per event, and a hash table, all allocating. *)

module M = Map.Make (Int)

type event = { time : int; seq : int; action : int -> int }

let events = 25_000

let kernel () =
  let heap = Array.make 4096 { time = 0; seq = 0; action = Fun.id } in
  let size = ref 0 in
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && before e heap.((!i - 1) / 2) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
        if before heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let table = Hashtbl.create 1024 in
  let map = ref M.empty in
  let x = ref 12345 and acc = ref 0 in
  let rand () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for seq = 0 to 1023 do
    push { time = rand () land 1023; seq; action = (fun v -> v + seq) }
  done;
  for seq = 1024 to events do
    let e = pop () in
    let k = rand () land 4095 in
    map := M.add k e.seq !map;
    Hashtbl.replace table k (e.action k);
    acc := !acc + Option.value ~default:0 (M.find_opt (k lxor 1) !map);
    let shift = k land 63 in
    push { time = e.time + 1 + (rand () land 1023); seq; action = (fun v -> v + shift) }
  done;
  !acc + Hashtbl.length table

(* Reported wall times are in seconds of a host on which [kernel] takes
   this long. *)
let reference = 0.025

let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0
