(* The queue is a binary min-heap laid out as parallel arrays — a flat
   [float array] of times, an [int array] of tie-break seqs and an
   [int array] of action slots — compared inline by (time, seq).  The
   actions themselves sit still in a slot table: an action is written
   once when it is pushed and cleared once when it is popped, so a sift
   moves only unboxed floats and ints, never crosses the write barrier,
   and a push or pop allocates nothing.  Free slots are kept past the end
   of the heap in the slot array itself: positions [size ..] hold the
   slots no entry uses, so a push takes the one at [size] and a pop puts
   the root's slot back there.

   Beside the heap sit the timer lanes: FIFO rings for fixed-delay timers
   (RPC timeouts, lease watchers) whose times arrive in non-decreasing
   order, so each lane's head is its minimum and an append is O(1).  An
   entry that would break a lane's order goes to the heap instead.  Both
   take their seq from the one counter, and dispatch pops the least
   (time, seq) over the heap root and every lane head, so the firing order
   is exactly that of a single queue. *)

let nop () = ()

type lane = {
  engine : t;
  mutable l_times : float array; (* ring buffer, capacity a power of two *)
  mutable l_seqs : int array;
  mutable l_actions : (unit -> unit) array;
  mutable l_head : int;
  mutable l_len : int;
}

and t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array; (* heap entry's action slot; then free slots *)
  mutable actions : (unit -> unit) array; (* by slot; [nop] when free *)
  mutable size : int;
  mutable lanes : lane array;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  tracer : Obs.Tracer.t;
}

let create ?(tracer = Obs.Tracer.null) () =
  {
    times = Array.make 64 0.;
    seqs = Array.make 64 0;
    slots = Array.init 64 Fun.id;
    actions = Array.make 64 nop;
    size = 0;
    lanes = [||];
    clock = 0.;
    next_seq = 0;
    processed = 0;
    tracer;
  }

let now t = t.clock
let tracer t = t.tracer

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Set the clock to [times.(i)].  Storing it boxes a float; consecutive
   events often share an instant, and then the box already held is kept.
   Zero always stores, so a [-0.] event time reaches the clock with its
   sign. *)
let advance t times i =
  let time = times.(i) in
  if time <> t.clock || time = 0. then t.clock <- time

(* --- heap ---------------------------------------------------------------- *)

(* Only a full heap grows, so every old slot is live and the new ones are
   all free. *)
let grow_heap t =
  let size = t.size in
  let cap = 2 * size in
  let times = Array.make cap 0. and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id and actions = Array.make cap nop in
  Array.blit t.times 0 times 0 size;
  Array.blit t.seqs 0 seqs 0 size;
  Array.blit t.slots 0 slots 0 size;
  Array.blit t.actions 0 actions 0 size;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.actions <- actions

(* Store the action in the first free slot, then sift a hole up from the
   end and drop the entry where it lands. *)
let heap_push t ~time ~seq action =
  if t.size = Array.length t.times then grow_heap t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.size) in
  t.actions.(slot) <- action;
  let i = ref t.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  t.size <- t.size + 1

(* Pop the root (the heap must be non-empty): take its action out of its
   slot, so a fired action is not retained, advance the clock to its
   time, sift the last entry down from the root, and free the slot into
   the position the heap just gave up. *)
let heap_pop t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(0) in
  let action = t.actions.(slot) in
  t.actions.(slot) <- nop;
  advance t times 0;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and last = slots.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < time || (ct = time && seqs.(c) < seq) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else moving := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- last
  end;
  slots.(n) <- slot;
  action

(* --- lanes --------------------------------------------------------------- *)

let lane t =
  let l =
    {
      engine = t;
      l_times = Array.make 64 0.;
      l_seqs = Array.make 64 0;
      l_actions = Array.make 64 nop;
      l_head = 0;
      l_len = 0;
    }
  in
  t.lanes <- Array.append t.lanes [| l |];
  l

let grow_lane l =
  let cap = Array.length l.l_times in
  let times = Array.make (2 * cap) 0. and seqs = Array.make (2 * cap) 0 in
  let actions = Array.make (2 * cap) nop in
  for k = 0 to l.l_len - 1 do
    let j = (l.l_head + k) land (cap - 1) in
    times.(k) <- l.l_times.(j);
    seqs.(k) <- l.l_seqs.(j);
    actions.(k) <- l.l_actions.(j)
  done;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_actions <- actions;
  l.l_head <- 0

let lane_pop t l =
  let h = l.l_head in
  let action = l.l_actions.(h) in
  advance t l.l_times h;
  l.l_actions.(h) <- nop;
  l.l_head <- (h + 1) land (Array.length l.l_times - 1);
  l.l_len <- l.l_len - 1;
  action

(* --- scheduling ---------------------------------------------------------- *)

let schedule_at_seq t ~time ~seq action =
  let clock = t.clock in
  heap_push t ~time:(if time >= clock then time else clock) ~seq action

let schedule_at t ~time action = schedule_at_seq t ~time ~seq:(reserve_seq t) action

let schedule t ~delay action =
  schedule_at t ~time:(t.clock +. (if 0. >= delay then 0. else delay)) action

let schedule_lane l ~time action =
  let t = l.engine in
  let seq = reserve_seq t in
  let clock = t.clock in
  let time = if time >= clock then time else clock in
  let len = l.l_len in
  let mask = Array.length l.l_times - 1 in
  if len > 0 && time < l.l_times.((l.l_head + len - 1) land mask) then
    heap_push t ~time ~seq action
  else begin
    if len > mask then grow_lane l;
    let i = (l.l_head + len) land (Array.length l.l_times - 1) in
    l.l_times.(i) <- time;
    l.l_seqs.(i) <- seq;
    l.l_actions.(i) <- action;
    l.l_len <- len + 1
  end

(* --- dispatch ------------------------------------------------------------ *)

(* Where the least (time, seq) is queued: [-1] the heap root, [i >= 0] the
   head of lane [i], [-2] nothing queued.  The dispatch loop is the
   simulator's innermost hot path, so this allocates nothing. *)
let next_source t =
  let src = ref (-2) and best_time = ref 0. and best_seq = ref 0 in
  if t.size > 0 then begin
    src := -1;
    best_time := t.times.(0);
    best_seq := t.seqs.(0)
  end;
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = lanes.(i) in
    if l.l_len > 0 then begin
      let h = l.l_head in
      let time = l.l_times.(h) in
      if !src = -2 || time < !best_time || (time = !best_time && l.l_seqs.(h) < !best_seq)
      then begin
        src := i;
        best_time := time;
        best_seq := l.l_seqs.(h)
      end
    end
  done;
  !src

let source_time t src =
  if src < 0 then t.times.(0)
  else
    let l = t.lanes.(src) in
    l.l_times.(l.l_head)

(* The action is taken out of the queue (and the clock advanced) before
   it runs, so an action that schedules sees a consistent queue. *)
let exec t src =
  let action = if src < 0 then heap_pop t else lane_pop t t.lanes.(src) in
  t.processed <- t.processed + 1;
  action ()

let step t =
  let src = next_source t in
  if src = -2 then false
  else begin
    exec t src;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let src = ref (next_source t) in
    while !src <> -2 && source_time t !src <= limit do
      exec t !src;
      src := next_source t
    done;
    if t.clock < limit then t.clock <- limit

let pending t =
  let n = ref t.size in
  Array.iter (fun l -> n := !n + l.l_len) t.lanes;
  !n

let events_processed t = t.processed
