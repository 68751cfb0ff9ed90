(* A write lock is a *lease*: it names the owning transaction and carries an
   expiry instant (simulated ms).  [infinity] means "never expires" — the
   pre-lease behaviour, still used by callers that do not run the
   termination protocol (baselines, unit tests). *)
type lease = {
  owner : int;
  mutable expires : float;
  mutable round : int;
  (* The lease this one displaced through an in-batch / decided-owner
     handover (batch commit, PROTOCOL.md §9).  A displaced lease may be the
     only protection for a committed-but-not-yet-applied predecessor write:
     if the successor is released before its own Apply lands (speculation
     abort, requeue), dropping the lease outright would let a reader of the
     stale copy validate cleanly and commit a duplicate version.  [unlock]
     therefore restores [prev] instead of clearing, except on the Apply
     path where the installed write makes predecessor protection moot. *)
  mutable prev : lease option;
}

type copy = {
  mutable version : int;
  mutable value : Value.t;
  mutable protected_by : lease option;
  mutable readers : int list;  (* PR list *)
  mutable writers : int list;  (* PW list *)
}

(* PR/PW lists are bounded: entries are removed on commit/abort
   notifications, but a lost notification (failed node) must not leak, so we
   cap each list and evict the oldest entry. *)
let pr_pw_cap = 64

(* Recently-applied transaction ids, kept so a status query ("did txn T
   decide commit?") can be answered from local evidence.  Bounded: an entry
   is only needed while some replica may still hold T's lease, i.e. for one
   lease horizon.  The set reports each id it evicts, so [retained] follows
   it in the same step. *)
let applied_cap = 4096

(* Copies live in one array indexed by oid: replica lookups are the
   protocol's innermost loop (every read, Rqv entry, vote and Apply row), so
   they cost an array load instead of a hash, a polymorphic compare and an
   option allocation.  A slot is [None] for an oid this replica does not
   host (another shard's, or never installed). *)
type t = {
  mutable slots : copy option array;  (* indexed by oid; grown on demand *)
  by_txn : int list ref Util.Itbl.t;  (* txn -> oids it holds leases on *)
  applied : Util.Fifo_set.t;
  (* Full write rows of recently-applied transactions, including rows for
     objects this replica does not host.  A cross-shard transaction's Apply
     carries the whole write set to every participant shard: keeping the
     foreign rows lets a status query from another shard's lease holder be
     answered with the very write it must adopt to rescue the commit.
     Evicted in lockstep with [applied] (same FIFO, same horizon). *)
  retained : (int * int * Value.t) list Util.Itbl.t;
  (* Cross-shard termination peers, from Commit_req.peers: the other
     participant shards' quorum members a status round for this txn must
     also ask.  Transient like the leases it serves (cleared on crash wipe);
     entries are added only alongside a granted lease and removed when the
     owner's last lease here goes. *)
  xpeers : int list Util.Itbl.t;
  (* Tracing: the store layer has no engine handle, so the cluster injects
     the tracer plus a clock closure and the hosting node id after
     construction (see [instrument]).  All three stay inert defaults when
     tracing is off. *)
  mutable tracer : Obs.Tracer.t;
  mutable trace_node : int;
  mutable clock : unit -> float;
  (* Fired when [unlock] restores a displaced lease (see [lease.prev]): the
     restored lease may have outlived its original termination watcher, so
     the server re-arms one.  Inert default for callers without the
     termination protocol. *)
  mutable on_restore : oid:int -> owner:int -> expires:float -> unit;
}

let create () =
  {
    slots = [||];
    by_txn = Util.Itbl.create 16;
    applied = Util.Fifo_set.create applied_cap;
    retained = Util.Itbl.create 64;
    xpeers = Util.Itbl.create 16;
    tracer = Obs.Tracer.null;
    trace_node = -1;
    clock = (fun () -> 0.);
    on_restore = (fun ~oid:_ ~owner:_ ~expires:_ -> ());
  }

let instrument t ~tracer ~node ~clock =
  t.tracer <- tracer;
  t.trace_node <- node;
  t.clock <- clock

let set_on_restore t f = t.on_restore <- f

(* Labelled, not optional, arguments: an optional [a] or [x] would box a
   [Some] on every lock operation, traced or not. *)
let trace_lease t ~ekind ~oid ~txn ~a ~x =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.emit t.tracer ~time:(t.clock ()) ~kind:ekind ~node:t.trace_node
      ~txn ~oid ~a ~x ()

(* [lease.grant] / [lease.renew] carry the new expiry; [lease.release]
   carries its cause in [a]. *)
let trace_expiry t ~ekind ~oid ~txn expires =
  trace_lease t ~ekind ~oid ~txn ~a:(-1) ~x:expires

let trace_release t ~oid ~txn ~a =
  trace_lease t ~ekind:Obs.Sem.lease_release ~oid ~txn ~a ~x:0.

(* Store a fresh copy of [oid], growing the array to cover it (doubling,
   so installs in oid order grow it O(log n) times). *)
let put t ~oid ~version ~value =
  if oid < 0 then invalid_arg (Printf.sprintf "Store: negative object id %d" oid);
  let len = Array.length t.slots in
  if oid >= len then begin
    let grown = Array.make (Stdlib.max (oid + 1) (2 * len)) None in
    Array.blit t.slots 0 grown 0 len;
    t.slots <- grown
  end;
  t.slots.(oid) <-
    Some { version; value; protected_by = None; readers = []; writers = [] }

let find t oid =
  if oid >= 0 && oid < Array.length t.slots then Array.unsafe_get t.slots oid
  else None

let mem t oid = Option.is_some (find t oid)

let install t ~oid ~init =
  put t ~oid ~version:0 ~value:init

let ensure t ~oid ~init = if not (mem t oid) then install t ~oid ~init

let get t oid =
  match find t oid with
  | Some copy -> copy
  | None -> invalid_arg (Printf.sprintf "Store.get: unknown object %d" oid)

let version t oid = (get t oid).version

let is_protected t ~oid ~against =
  match (get t oid).protected_by with
  | None -> false
  | Some lease -> lease.owner <> against

let lease_of t oid = (get t oid).protected_by

(* --- lease index -------------------------------------------------------- *)

let index_add t ~oid ~txn =
  match Util.Itbl.find_opt t.by_txn txn with
  | Some oids -> if not (Util.Ilist.mem oid !oids) then oids := oid :: !oids
  | None -> Util.Itbl.replace t.by_txn txn (ref [ oid ])

let index_remove t ~oid ~txn =
  match Util.Itbl.find_opt t.by_txn txn with
  | None -> ()
  | Some oids ->
    oids := List.filter (fun o -> o <> oid) !oids;
    if !oids = [] then Util.Itbl.remove t.by_txn txn

let leased_oids t ~txn =
  match Util.Itbl.find_opt t.by_txn txn with Some oids -> !oids | None -> []

let try_lock ?(expires = Float.infinity) ?(round = 0) t ~oid ~txn =
  let copy = get t oid in
  match copy.protected_by with
  | None ->
    copy.protected_by <- Some { owner = txn; expires; round; prev = None };
    index_add t ~oid ~txn;
    trace_expiry t ~ekind:Obs.Sem.lease_grant ~oid ~txn expires;
    true
  | Some lease ->
    if lease.owner = txn then begin
      (* Idempotent re-grant by the owner also renews the lease.  A
         reordered re-grant from an abandoned earlier round must not roll
         the round back, so keep the highest seen. *)
      lease.expires <- Float.max lease.expires expires;
      lease.round <- Stdlib.max lease.round round;
      trace_expiry t ~ekind:Obs.Sem.lease_renew ~oid ~txn lease.expires;
      true
    end
    else false

(* Transfer the lease on [oid] from [prev_owner] (an in-batch chain
   predecessor or a decided owner whose Apply is in flight) to [txn],
   keeping the displaced lease in [prev] so a later [unlock] of the
   successor restores it.  Falls back to a plain [try_lock] when the lease
   moved under us. *)
let handover ?(expires = Float.infinity) ?(round = 0) t ~oid ~prev_owner ~txn =
  let copy = get t oid in
  match copy.protected_by with
  | Some lease when lease.owner = prev_owner ->
    copy.protected_by <- Some { owner = txn; expires; round; prev = Some lease };
    index_remove t ~oid ~txn:prev_owner;
    index_add t ~oid ~txn;
    trace_release t ~oid ~txn:prev_owner ~a:3;
    trace_expiry t ~ekind:Obs.Sem.lease_grant ~oid ~txn expires;
    true
  | Some _ | None -> try_lock ~expires ~round t ~oid ~txn

let unlock ?round ?(restore = true) t ~oid ~txn =
  let copy = get t oid in
  match copy.protected_by with
  | Some lease when lease.owner = txn ->
    let stale =
      (* A Release retransmitted from an abandoned commit round can arrive
         after a later round of the same transaction re-acquired the lock;
         freeing it would let a conflicting writer in mid-2PC. *)
      match round with Some r -> r < lease.round | None -> false
    in
    if not stale then begin
      index_remove t ~oid ~txn;
      trace_release t ~oid ~txn ~a:0;
      match (if restore then lease.prev else None) with
      | Some p ->
        copy.protected_by <- Some p;
        index_add t ~oid ~txn:p.owner;
        trace_expiry t ~ekind:Obs.Sem.lease_grant ~oid ~txn:p.owner p.expires;
        t.on_restore ~oid ~owner:p.owner ~expires:p.expires
      | None -> copy.protected_by <- None
    end
  | Some _ | None -> ()

(* Heartbeat renewal: any traffic from [txn] pushes the expiry of every
   lease it holds here out to [expires] (never shortens). *)
let rec renew_oids t ~txn ~expires = function
  | [] -> ()
  | oid :: rest ->
    (match (get t oid).protected_by with
    | Some lease when lease.owner = txn ->
      lease.expires <- Float.max lease.expires expires;
      trace_expiry t ~ekind:Obs.Sem.lease_renew ~oid ~txn lease.expires
    | Some _ | None -> ());
    renew_oids t ~txn ~expires rest

let renew t ~txn ~expires = renew_oids t ~txn ~expires (leased_oids t ~txn)

(* Walk the hosted copies in descending oid order, so a consing [f] builds
   its list in ascending order. *)
let fold_copies_desc t f acc =
  let acc = ref acc in
  for oid = Array.length t.slots - 1 downto 0 do
    match t.slots.(oid) with Some copy -> acc := f oid copy !acc | None -> ()
  done;
  !acc

let held_leases t =
  fold_copies_desc t
    (fun oid copy acc ->
      match copy.protected_by with
      | Some lease -> (oid, lease.owner, lease.expires) :: acc
      | None -> acc)
    []

(* --- applied-transaction evidence --------------------------------------- *)

let note_applied t ~txn =
  let evicted = Util.Fifo_set.add t.applied txn in
  if evicted <> Util.Fifo_set.none then Util.Itbl.remove t.retained evicted

let was_applied t ~txn = Util.Fifo_set.mem t.applied txn

let retain_writes t ~txn rows =
  if rows <> [] && not (Util.Itbl.mem t.retained txn) then
    Util.Itbl.replace t.retained txn rows

let retained_writes t ~txn =
  match Util.Itbl.find_opt t.retained txn with Some rows -> rows | None -> []

let set_status_peers t ~txn peers =
  if peers <> [] then Util.Itbl.replace t.xpeers txn peers

let status_peers_of t ~txn =
  match Util.Itbl.find_opt t.xpeers txn with Some peers -> peers | None -> []

let clear_status_peers t ~txn = Util.Itbl.remove t.xpeers txn

let apply t ~oid ~version ~value ~txn =
  let copy = get t oid in
  if version > copy.version then begin
    copy.version <- version;
    copy.value <- value
  end;
  note_applied t ~txn;
  (* The installed write supersedes any protection [txn] was providing, so
     drop [txn] from displaced-lease chains (see [lease.prev]) instead of
     letting a later restore resurrect a moot lease, and clear rather than
     restore when [txn] holds the lease itself. *)
  (match copy.protected_by with
  | Some lease ->
    let rec scrub l =
      match l.prev with
      | Some p when p.owner = txn ->
        l.prev <- p.prev;
        scrub l
      | Some p -> scrub p
      | None -> ()
    in
    scrub lease
  | None -> ());
  unlock ~restore:false t ~oid ~txn

let bounded_add txn entries =
  if Util.Ilist.mem txn entries then entries
  else begin
    let entries = txn :: entries in
    if List.length entries > pr_pw_cap then
      List.filteri (fun i _ -> i < pr_pw_cap) entries
    else entries
  end

let add_reader t ~oid ~txn =
  let copy = get t oid in
  copy.readers <- bounded_add txn copy.readers

let add_writer t ~oid ~txn =
  let copy = get t oid in
  copy.writers <- bounded_add txn copy.writers

let remove_txn t ~oid ~txn =
  match find t oid with
  | None -> ()
  | Some copy ->
    (* The lists are nearly always empty here: skip the filter closures. *)
    if copy.readers <> [] then copy.readers <- List.filter (fun id -> id <> txn) copy.readers;
    if copy.writers <> [] then copy.writers <- List.filter (fun id -> id <> txn) copy.writers

let readers t oid = match find t oid with Some copy -> copy.readers | None -> []
let writers t oid = match find t oid with Some copy -> copy.writers | None -> []

(* --- crash-recovery state transfer ------------------------------------- *)

(* Committed state only: locks and PR/PW lists are transient and are not
   shipped to a recovering peer. *)
let dump t =
  fold_copies_desc t (fun oid copy acc -> (oid, copy.version, copy.value) :: acc) []

(* Merge one copy received from a sync quorum: adopt it if strictly newer
   (a newer version also invalidates any stale local lease), install it if
   the object is unknown locally. *)
let sync_copy t ~oid ~version ~value =
  match find t oid with
  | None -> put t ~oid ~version ~value
  | Some copy ->
    if version > copy.version then begin
      begin
        match copy.protected_by with
        | Some lease ->
          index_remove t ~oid ~txn:lease.owner;
          trace_release t ~oid ~txn:lease.owner ~a:1
        | None -> ()
      end;
      copy.version <- version;
      copy.value <- value;
      copy.protected_by <- None
    end

(* A crashed process loses its volatile state: leases it granted, PR/PW
   registrations and apply evidence die with it.  Called when the node
   rejoins. *)
let reset_transients t =
  Array.iteri
    (fun oid slot ->
      match slot with
      | Some copy ->
        (match copy.protected_by with
        | Some lease ->
          trace_release t ~oid ~txn:lease.owner ~a:2;
          copy.protected_by <- None
        | None -> ());
        copy.readers <- [];
        copy.writers <- []
      | None -> ())
    t.slots;
  Util.Itbl.reset t.by_txn;
  Util.Fifo_set.reset t.applied;
  Util.Itbl.reset t.retained;
  Util.Itbl.reset t.xpeers
