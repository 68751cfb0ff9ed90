(* Every envelope carries a view epoch, stamped at send time from the
   [epoch_of] hook.  The epoch is keyed by the *request payload*, not the
   node: with a sharded object space each shard runs its own view epoch, and
   a message is fenced against the epoch of the shard its objects live on
   (with one shard this degenerates to the single cluster-wide epoch).  With
   fencing installed (see [set_fencing]) a node drops requests stamped with
   an older epoch than the current one — the membership fence that keeps
   evidence gathered under a superseded view from feeding quorum decisions
   in the current one.  Stale replies are dropped unconditionally: the
   caller's round times out and its retry re-stamps the current epoch.
   A reply carries its request payload [req] so the receiver can look up
   the request's epoch context, [epoch_of req], at receipt (the reply
   payload alone cannot name a shard).  Without [set_fencing] every epoch
   is 0 and the layer behaves exactly as before. *)
type ('req, 'rep) envelope =
  | Request of { rid : int; payload : 'req; wants_reply : bool; epoch : int }
  | Reply of { rid : int; payload : 'rep; epoch : int; req : 'req }

(* One multicall in flight.  Records are pooled through a free stack, like
   [Network]'s envelopes: each carries its own [timeout] closure, built
   once when the record is created, so a steady-state multicall schedules
   a pooled record and allocates neither.  A record is live from
   [multicall] until its timeout fires, but it holds the caller's state
   only until the call is decided: completion and timeout both clear
   [awaiting], [replies] and [complete] before running the continuation,
   so a completed call's continuation is not retained by the timeout
   still queued in the lane.  The timeout returns the record to the pool
   whether or not the call completed first.  [pending] is keyed by rid,
   not by record, so a late reply to a decided call finds nothing even
   after its record has been reused. *)
type ('req, 'rep) call = {
  mutable rid : int;
  mutable src : int;
  mutable kind : Network.Kind.t;
  mutable awaiting : int list; (* not yet replied, in [dsts] order *)
  mutable replies : (int * 'rep) list; (* newest first *)
  mutable finished : bool;
  mutable complete : replies:(int * 'rep) list -> missing:int list -> unit;
  mutable timeout : unit -> unit; (* set at creation, references this record *)
}

let no_continuation ~replies:_ ~missing:_ = ()

type ('req, 'rep) t = {
  network : ('req, 'rep) envelope Network.t;
  lane : Engine.lane; (* multicall timeouts: one fixed delay per caller *)
  servers : (src:int -> 'req -> 'rep option) option array;
  pending : ('req, 'rep) call Util.Itbl.t; (* undecided calls, by rid *)
  mutable call_free : ('req, 'rep) call array; (* call free stack *)
  mutable call_free_len : int;
  mutable next_rid : int;
  mutable give_ups : int;
  mutable fenced : int;
  (* Membership fencing, installed by the cluster: [epoch_of req] is the
     current view epoch of the shard [req]'s objects live on (one shard:
     the cluster-wide epoch) and [fenceable req] says whether a stale
     [req] must be rejected (quorum-evidence traffic) or served anyway
     (idempotent catch-up/installer traffic such as Sync_req).  Inert
     defaults: epoch 0 everywhere, nothing fenced. *)
  mutable epoch_of : 'req -> int;
  mutable fenceable : 'req -> bool;
  (* Retransmission backoff ([acked_send]): attempt k waits
     min(max, base * 2^k) with seeded jitter before re-sending.  A base of
     0 retries immediately (the historical fixed-interval behaviour). *)
  retry_base : float;
  retry_max : float;
  rng : Util.Rng.t;
  tracer : Obs.Tracer.t; (* cached from the engine; Tracer.null when off *)
}

let trace_fence t ~node ~src ~msg_epoch ~cur_epoch =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.emit8 t.tracer
      ~time:(Engine.now (Network.engine t.network))
      ~kind:Obs.Sem.epoch_fence ~node ~txn:(-1) ~oid:(-1) ~a:src ~b:msg_epoch
      ~x:(Float.of_int cur_epoch)

(* Decide [c]: take it out of [pending], drop everything it holds, then
   run the saved continuation with the replies in arrival order. *)
let decide t c =
  let complete = c.complete and replies = List.rev c.replies and missing = c.awaiting in
  c.finished <- true;
  Util.Itbl.remove t.pending c.rid;
  c.awaiting <- [];
  c.replies <- [];
  c.complete <- no_continuation;
  complete ~replies ~missing

(* --- call pool ---------------------------------------------------------- *)

let release_call t c =
  let cap = Array.length t.call_free in
  if t.call_free_len = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    let grown = Array.make cap' c in
    Array.blit t.call_free 0 grown 0 cap;
    t.call_free <- grown
  end;
  t.call_free.(t.call_free_len) <- c;
  t.call_free_len <- t.call_free_len + 1

(* The timeout of [c]'s current use.  The record goes back to the pool
   first, so a continuation that issues a new multicall may reuse it. *)
let fire_timeout t c =
  release_call t c;
  if not c.finished then begin
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.emit8 t.tracer
        ~time:(Engine.now (Network.engine t.network))
        ~kind:Obs.Sem.rpc_timeout ~node:c.src ~txn:(-1) ~oid:(-1)
        ~a:(List.length c.awaiting) ~b:c.kind ~x:0.;
    decide t c
  end

let acquire_call t =
  if t.call_free_len > 0 then begin
    let n = t.call_free_len - 1 in
    t.call_free_len <- n;
    t.call_free.(n)
  end
  else begin
    let rec c =
      {
        rid = 0;
        src = 0;
        kind = Network.Kind.other;
        awaiting = [];
        replies = [];
        finished = true;
        complete = no_continuation;
        timeout = (fun () -> fire_timeout t c);
      }
    in
    c
  end

let handle_envelope t ~node ~src env =
  match env with
  | Request { rid; payload; wants_reply; epoch } ->
    let cur = t.epoch_of payload in
    if epoch < cur && t.fenceable payload then begin
      t.fenced <- t.fenced + 1;
      trace_fence t ~node ~src ~msg_epoch:epoch ~cur_epoch:cur
    end
    else begin
      match t.servers.(node) with
      | None -> ()
      | Some server ->
        begin
          match server ~src payload with
          | Some rep when wants_reply ->
            Network.send t.network ~kind:Network.Kind.reply ~src:node ~dst:src
              (Reply { rid; payload = rep; epoch = t.epoch_of payload; req = payload })
          | Some _ | None -> ()
        end
    end
  | Reply { rid; payload; epoch; req } ->
    let cur = t.epoch_of req in
    if epoch < cur then begin
      (* Evidence from a superseded view: the pending round will time out
         and the caller's retry carries the current epoch. *)
      t.fenced <- t.fenced + 1;
      trace_fence t ~node ~src ~msg_epoch:epoch ~cur_epoch:cur
    end
    else begin
      match Util.Itbl.find_opt t.pending rid with
      | None -> () (* request already decided *)
      | Some c ->
        if Util.Ilist.mem src c.awaiting then begin
          c.awaiting <- List.filter (fun n -> n <> src) c.awaiting;
          c.replies <- (src, payload) :: c.replies;
          if c.awaiting = [] then decide t c
        end
    end

let create ?(seed = 0) ?(retry_base = 0.) ?(retry_max = 0.) ~network () =
  let t =
    {
      network;
      lane = Engine.lane (Network.engine network);
      servers = Array.make (Network.nodes network) None;
      pending = Util.Itbl.create 64;
      call_free = [||];
      call_free_len = 0;
      next_rid = 0;
      give_ups = 0;
      fenced = 0;
      epoch_of = (fun _ -> 0);
      fenceable = (fun _ -> false);
      retry_base;
      retry_max;
      rng = Util.Rng.create seed;
      tracer = Engine.tracer (Network.engine network);
    }
  in
  for node = 0 to Network.nodes network - 1 do
    Network.set_handler network ~node (fun ~src env -> handle_envelope t ~node ~src env)
  done;
  t

let serve t ~node handler = t.servers.(node) <- Some handler

let set_fencing t ~epoch_of ~fenceable =
  t.epoch_of <- epoch_of;
  t.fenceable <- fenceable

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let multicall t ?kind ~src ~dsts ~timeout req ~on_done =
  let rid = fresh_rid t in
  if dsts = [] then on_done ~replies:[] ~missing:[]
  else begin
    let c = acquire_call t in
    c.rid <- rid;
    c.src <- src;
    c.kind <- (match kind with Some k -> k | None -> Network.Kind.other);
    c.awaiting <- dsts;
    c.finished <- false;
    c.complete <- on_done;
    Util.Itbl.replace t.pending rid c;
    Network.multicast_batch t.network ?kind ~src ~dsts
      (Request { rid; payload = req; wants_reply = true; epoch = t.epoch_of req });
    let engine = Network.engine t.network in
    Engine.schedule_lane t.lane ~time:(Engine.now engine +. timeout) c.timeout
  end

let call t ?kind ~src ~dst ~timeout req ~on_reply ~on_timeout =
  multicall t ?kind ~src ~dsts:[ dst ] ~timeout req ~on_done:(fun ~replies ~missing ->
      match (replies, missing) with
      | [ (_, rep) ], _ -> on_reply rep
      | _, _ -> on_timeout ())

let cast t ?kind ~src ~dst req =
  let rid = fresh_rid t in
  Network.send t.network ?kind ~src ~dst
    (Request { rid; payload = req; wants_reply = false; epoch = t.epoch_of req })

(* One rid and one shared [Request] for the whole wave: fire-and-forget
   requests never enter the pending table, so per-destination rids bought
   nothing but allocations. *)
let multicast t ?kind ~src ~dsts req =
  let rid = fresh_rid t in
  Network.multicast_batch t.network ?kind ~src ~dsts
    (Request { rid; payload = req; wants_reply = false; epoch = t.epoch_of req })

(* At-least-once delivery for idempotent one-way messages: the request is
   re-sent until the server acknowledges it or [attempts] are exhausted
   (the destination may be genuinely dead).  Re-sends back off
   exponentially with seeded jitter (see [retry_base]) so a burst of
   losses does not hammer a congested link in lock-step; each re-send
   re-stamps the sender's current epoch.  The ack payload is ignored. *)
let acked_send t ?kind ?(attempts = 6) ~src ~dst ~timeout req =
  let give_up () =
    t.give_ups <- t.give_ups + 1;
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.emit8 t.tracer
        ~time:(Engine.now (Network.engine t.network))
        ~kind:Obs.Sem.rpc_giveup ~node:src ~txn:(-1) ~oid:(-1) ~a:dst
        ~b:(match kind with Some k -> k | None -> Network.Kind.other)
        ~x:0.
  in
  let rec go ~left ~used =
    call t ?kind ~src ~dst ~timeout req
      ~on_reply:(fun _ -> ())
      ~on_timeout:(fun () ->
        if left <= 1 then give_up ()
        else if t.retry_base <= 0. then go ~left:(left - 1) ~used:(used + 1)
        else begin
          let capped =
            Float.min t.retry_max
              (t.retry_base *. Float.of_int (1 lsl Stdlib.min used 8))
          in
          let delay = capped *. (0.5 +. Util.Rng.float t.rng 1.0) in
          Engine.schedule (Network.engine t.network) ~delay (fun () ->
              go ~left:(left - 1) ~used:(used + 1))
        end)
  in
  go ~left:attempts ~used:0

let acked_multicast t ?kind ?attempts ~src ~dsts ~timeout req =
  List.iter (fun dst -> acked_send t ?kind ?attempts ~src ~dst ~timeout req) dsts

let give_ups t = t.give_ups
let reset_give_ups t = t.give_ups <- 0
let fenced t = t.fenced
let reset_fenced t = t.fenced <- 0
