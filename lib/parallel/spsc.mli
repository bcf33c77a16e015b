(** A bounded single-producer/single-consumer channel — the software
    incarnation of the core-to-core forwarding queue of paper §2.1
    ("Exploiting multicores", after Nagarajan et al., INTERACT'08).

    The main core pushes, the helper core pops; capacity is fixed at
    creation, so a lagging consumer exerts backpressure on the
    producer exactly as the paper's bounded hardware queue does.  The
    implementation is a ring buffer with atomic head/tail indices: the
    common push/pop path takes no lock, and a Mutex/Condition pair is
    used only to park a blocked side (producer on a full ring,
    consumer on an empty one) and to wake it again.

    The channel is strictly one producer domain and one consumer
    domain; none of the operations below may be called from two
    domains concurrently on the same side.

    Lifecycle: the producer eventually calls {!close} (no more
    pushes); the consumer drains and {!pop} returns [None].  If the
    consumer dies instead, it calls {!abort}, which turns every
    subsequent or blocked {!push} into a counted drop so the producer
    can never deadlock against a dead helper.

    Slots hold elements directly behind a unique sentinel rather than
    as ['a option], so a push allocates nothing. *)

type 'a t

(** [create ?push_leg ?pop_leg ~capacity] is an empty channel holding
    at most [capacity] elements.  The optional {!Dift_obs.Progress}
    legs are armed while the corresponding side is {e parked} (producer
    on a full ring, consumer on an empty one) — the non-blocking fast
    path never touches them — letting a watchdog see which seam a
    wedged run is blocked on.
    @raise Invalid_argument if [capacity < 1]. *)
val create :
  ?push_leg:Dift_obs.Progress.leg ->
  ?pop_leg:Dift_obs.Progress.leg ->
  capacity:int ->
  unit ->
  'a t

(** The fixed slot count the channel was created with. *)
val capacity : 'a t -> int

(** Elements currently buffered (racy snapshot, exact when quiescent). *)
val length : 'a t -> int

(** Whether {!close} has run (atomic; readable from any domain). *)
val closed : 'a t -> bool

(** Whether {!abort} has run (atomic; readable from any domain).  The
    fault-injection tests use this to assert which side tore the
    channel down. *)
val aborted : 'a t -> bool

(** {1 Producer side} *)

(** [push t x] enqueues [x], blocking while the channel is full.
    After {!abort}, [x] is dropped (and counted) instead.
    @raise Invalid_argument if the channel is closed. *)
val push : 'a t -> 'a -> unit

(** No more pushes; blocked and future {!pop}s see the remaining
    elements and then [None].  Idempotent. *)
val close : 'a t -> unit

(** Times the producer had to block on a full channel — the software
    analogue of the cycle model's [stall_cycles] backpressure counter.
    The stall/wait/drop counters are atomic, so they may be read from
    {e any} domain (including a third, monitoring domain) while the
    channel is in use; reads are never torn and successive reads are
    monotonic. *)
val producer_stalls : 'a t -> int

(** Elements dropped because the consumer aborted (atomic; readable
    from any domain). *)
val dropped : 'a t -> int

(** {1 Consumer side} *)

(** [pop t] dequeues the oldest element, blocking while the channel is
    empty and not yet closed; [None] once the channel is closed and
    drained (or aborted). *)
val pop : 'a t -> 'a option

(** Consumer gives up: wakes and un-blocks the producer permanently,
    turning pushes into drops.  Used to propagate a helper-side crash
    without deadlocking the main core.  Idempotent. *)
val abort : 'a t -> unit

(** {!abort}, returning [true] iff this call set the flag — exactly
    one caller sees [true], however many domains abort the ring. *)
val abort_first : 'a t -> bool

(** [pop_remaining t] dequeues the oldest buffered element {e even
    after} {!abort} — {!pop} honours the abort flag before the
    buffer, so elements delivered before the abort would otherwise sit
    in the ring uncounted.  The consumer calls this in a loop after
    aborting to sweep those elements into its discard accounting
    (post-abort pushes are already counted as {!dropped}, so every
    element ends up in exactly one book).  Never blocks; [None] when
    the buffer is empty.  Consumer side only. *)
val pop_remaining : 'a t -> 'a option

(** Times the consumer had to block on an empty channel (helper idle
    episodes; atomic, readable from any domain). *)
val consumer_waits : 'a t -> int
