(** Discrete-event simulation engine.

    The engine owns virtual time (in milliseconds) and a priority queue of
    events: a binary heap ordered by (time, seq) plus FIFO timer lanes
    (see {!lane}).  Everything in the reproduction — network delivery, node
    processing, client think time, failure injection — is an event.  Events
    scheduled for the same instant fire in scheduling order, which together
    with the seeded {!Util.Rng} makes every experiment fully deterministic. *)

type t

val create : ?tracer:Obs.Tracer.t -> unit -> t
(** [tracer] (default {!Obs.Tracer.null}, i.e. disabled) is the structured
    event log every component built on this engine reports into.  The engine
    itself only carries it — components cache it at construction — so
    tracing adds no events, no RNG draws and no time perturbation: runs are
    byte-identical with tracing on or off. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

val tracer : t -> Obs.Tracer.t
(** The tracer supplied at {!create} — the engine is the single place the
    whole component stack fetches it from. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. max 0. delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past fire immediately (at [now]). *)

val reserve_seq : t -> int
(** Claim the next tie-break sequence number without scheduling anything.
    Events at equal times fire in ascending [seq] order, so a component
    that wants to materialise events lazily (the network's fan-out
    batching) can reserve the seqs its expansion will use up front and
    keep the firing order byte-identical to eager scheduling. *)

val schedule_at_seq : t -> time:float -> seq:int -> (unit -> unit) -> unit
(** [schedule_at] with an explicit tie-break seq, previously claimed via
    {!reserve_seq}.  Reusing a seq already in the queue is not checked —
    callers own the discipline. *)

type lane
(** A FIFO timer lane: a queue for timers armed at a fixed delay (RPC
    timeouts, lease watchers), whose times therefore arrive in
    non-decreasing order.  Such timers are most of what is pending in a
    quorum protocol and almost never do anything; a lane holds them in
    arrival order at O(1) per append and pop instead of sifting them
    through the heap. *)

val lane : t -> lane
(** A fresh, empty lane on this engine.  Lanes are few and long-lived
    (one per component); every dispatch looks at each lane's head. *)

val schedule_lane : lane -> time:float -> (unit -> unit) -> unit
(** [schedule_at] through a lane, with the same result: the entry takes
    its seq from {!reserve_seq} and its time is clamped to [now] exactly
    as [schedule_at] does, and dispatch always fires the least (time, seq)
    over the heap and every lane head.  So routing a timer through a lane
    never changes the event order, {!pending}, {!events_processed} or the
    clock.  The entry joins the lane only if its time is no earlier than
    the lane's last entry; otherwise it goes to the heap.  A lane is
    therefore always sorted, and an out-of-order timer costs a heap entry,
    never a wrong order. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, advancing virtual time.  With [until], stops once
    the next event lies strictly beyond that time (the clock is then set to
    [until]). *)

val step : t -> bool
(** Execute exactly one event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of queued events, lane entries included. *)

val events_processed : t -> int
(** Total events executed since creation. *)
