(** The batched forwarding channel between an application core and a
    DIFT helper core (paper §2.1): batches of elements — usually
    {!Dift_vm.Event.exec} records — carried over a bounded {!Spsc}
    ring.

    The paper's forwarding set — memory addresses and values, input
    words, and control-flow outcomes — is exactly what an
    {!Dift_vm.Event.exec} record carries, so whole event records are
    forwarded.  To amortise channel synchronisation, the producer
    accumulates elements into fixed-size batches and pushes one batch
    (one ring slot) at a time; the ring capacity is therefore counted
    in {e batches}, and the channel buffers up to
    [queue_capacity * batch_size] elements.  Batch backing arrays are
    recycled from the consumer back to the producer over an internal
    free list, so steady-state forwarding allocates nothing per
    batch.

    The runtime ({!Shard_engine}) creates one channel per helper:
    {!Parallel.run_result} forwards the whole event stream over a
    single channel to its one helper, and
    {!Parallel.run_sharded_result} creates one channel per shard (with
    a per-shard [?ns] metric namespace) and routes each event to the
    shards that participate in it.

    Shutdown protocol: the producer calls {!close}, which flushes the
    trailing partial batch and closes the ring; {!drain} then returns
    once every forwarded element has been consumed.  If the consumer
    fails, {!abort} permanently unblocks the producer (further
    elements are dropped and counted) so the application can finish
    and observe the helper's exception at join time.

    See [docs/forwarding-protocol.md] for the full protocol. *)

(** A forwarding channel carrying elements of type ['a].  Strictly one
    producer domain and one consumer domain, like the underlying
    {!Spsc} ring. *)
type 'a t

(** [create ~queue_capacity ~batch_size ()] — a ring of
    [queue_capacity] batch slots, each holding up to [batch_size]
    elements.

    With [?obs], the channel registers its ring gauges (capacity,
    stalls, waits, drops — all backed by the ring's atomic counters,
    so a snapshot from any domain is safe) and records a
    batch-occupancy histogram on every push.  [?ns] sets the metric
    name prefix (default ["parallel"], giving [parallel.ring.*] and
    [parallel.forwarder.*]); the sharded runtime passes
    [parallel.shard<i>] so each shard's channel publishes its own
    series.

    With [?trace], the channel additionally records the execution
    timeline of every ring transfer (category [parallel]): each
    pushed batch becomes a [ring.enqueue] span on the producer's
    track — named [ring.stall] when the push parked on a full ring, so
    backpressure waves are visible — each pop a [ring.dequeue] span on
    the consumer's track (named [ring.wait] when it parked on an empty
    ring, a helper idle episode), and both sides sample the
    [ring.occupancy] counter track after every transfer.

    With [?flight], the channel records one bounded flight-recorder
    event per channel operation on the acting domain's ring, in the
    category of the channel's [?ns]: [ring.push]/[ring.pop] (a = batch
    length, b = ring occupancy after), [ring.drop]/[ring.discard]
    (a = batch length, b = running loss count), [ring.close]
    (a = events, b = batches), [ring.abort], and [ring.sweep]
    (a = batches, b = events recovered by the post-abort sweep).  See
    the event catalogue in [docs/observability.md].

    With [?chaos], every batch push and batch pop consults the
    fault-injection plan (see {!Chaos}): the channel derives a
    {!Chaos.inst} for its namespace, injected push failures become
    counted {!dropped_batches}, injected pop failures become counted
    {!discarded_batches}, and injected raises surface from
    {!flush}/{!drain} after accounting.  The internal free-list ring
    is a second seam under the namespace [ring.free.<ns>], matched by
    {e explicitly targeted} rules only (a bare [pop@1=raise] still
    means the event ring): a [drop] skips recycling once, an [abort]
    disables the free ring for good (every batch thereafter falls to
    the GC — pure degradation, no event loss), a [raise] crashes the
    side it intercepts.  Without [?chaos] the channel takes the
    direct [Spsc] path — no per-operation overhead.

    With [?progress], the channel registers two {!Dift_obs.Progress}
    legs — [<ns>.push] and [<ns>.pop] — armed while the corresponding
    side is parked (full ring / empty ring) and ticked once per
    delivered resp. consumed batch, so a watchdog can tell a busy
    channel from a wedged one.  The free-list ring registers no legs:
    it never blocks.  Without [?progress] the hot path is untouched.

    [escalate] (default [false]) marks a channel whose losses would
    wedge a protocol riding on it: injected drop/abort faults are then
    served as raises instead of counted losses (see
    {!Chaos.instance}).  The sharded engine sets it on the
    request/reply feed rings.
    @raise Invalid_argument if either size is [< 1]. *)
val create :
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?progress:Dift_obs.Progress.t ->
  ?escalate:bool ->
  ?ns:string ->
  queue_capacity:int ->
  batch_size:int ->
  unit ->
  'a t

(** {1 Producer (application-core) side} *)

(** Forward one element; pushes the current batch when it reaches
    [batch_size] (blocking while the ring is full). *)
val add : 'a t -> 'a -> unit

(** [add_n t e n] forwards one element that stands for [n] logical
    events — an encoded multi-event batch (see {!Codec}).  Every event
    counter on the channel ({!events}, {!dropped_events},
    {!discarded_events}, {!consumed_events}) moves by [n]; batch and
    ring-occupancy accounting still move by one element. *)
val add_n : 'a t -> 'a -> int -> unit

(** [reusable t] opens the next batch (a record recycled off the free
    list when one is there, through the [ring.free.<ns>] chaos seam)
    and returns the element its next slot still holds from that
    record's previous trip round the ring, if any.  The consumer has
    finished with such an element, so a producer whose elements are
    themselves buffers ({!Codec}'s lanes) can refill it instead of
    allocating. *)
val reusable : 'a t -> 'a option

(** Push the current partial batch, if any.  The sharded router calls
    this after every cross-shard event so no participant's copy can
    sit in an open batch while a peer shard blocks waiting for it. *)
val flush : 'a t -> unit

(** Flush and close the ring: no more elements will be forwarded. *)
val close : 'a t -> unit

(** Elements accepted by {!add} so far (delivered or not). *)
val events : 'a t -> int

(** Batches actually delivered to the ring (ring messages).  A batch
    lost to an abort or an injected failure is {e not} counted here —
    it lands in {!dropped_batches} instead, so with [batch_size = 1]
    the books reconcile exactly:
    [events = batches + dropped_events] after {!close}. *)
val batches : 'a t -> int

(** Times the producer blocked on a full ring (backpressure; the
    wall-clock analogue of the simulator's [stall_cycles]). *)
val producer_stalls : 'a t -> int

(** Batches lost on the producer side — pushed after an {!abort}, or
    failed by an injected fault.  Alias: {!dropped}. *)
val dropped_batches : 'a t -> int

(** Elements inside {!dropped_batches}. *)
val dropped_events : 'a t -> int

(** Same as {!dropped_batches}. *)
val dropped : 'a t -> int

(** Whether the underlying ring has been {!abort}ed (atomic; readable
    from any domain). *)
val aborted : 'a t -> bool

(** {1 Consumer (helper-core) side} *)

(** [drain t ~f] applies [f] to every forwarded element in program
    order; returns when the channel is closed and fully drained.

    [around_batch] wraps the processing of each popped batch (the
    thunk it receives runs [f] over the whole batch); the runtime uses
    it to time helper-domain busy periods without a per-event clock
    read.  It must call the thunk exactly once.

    If [f] (or [around_batch]) raises, the channel is aborted before
    the exception propagates, so a producer parked against a full ring
    is released — its pushes become counted drops instead of a
    wedge.

    {b Abort accounting.}  When drain ends by abort (its own, an
    injected one, or a raise), it {e sweeps} the batches still
    buffered in the ring into {!discarded_batches} — they were
    delivered but can never be consumed, and the producer cannot
    publish after an abort, so without the sweep up to
    [queue_capacity] batches would vanish from the books.  After both
    domains quiesce the ledger closes exactly:
    [batches = consumed_batches + discarded_batches +
    in_flight_batches], where {!in_flight_batches} is non-zero only
    for a push that raced the abort flag itself. *)
val drain :
  ?around_batch:((unit -> unit) -> unit) -> 'a t -> f:('a -> unit) -> unit

(** Consumer gives up (helper crash): unblocks the producer for good. *)
val abort : 'a t -> unit

(** Times the consumer blocked on an empty ring (helper idle
    episodes). *)
val consumer_waits : 'a t -> int

(** Batches popped but not processed — an injected pop failure
    discarded them, or the post-abort sweep recovered them from the
    ring (consumer-side mirror of {!dropped_batches}; always [0]
    without [?chaos] on a clean run). *)
val discarded_batches : 'a t -> int

(** Elements inside {!discarded_batches}. *)
val discarded_events : 'a t -> int

(** Batches fully processed by {!drain} (every element saw [f]). *)
val consumed_batches : 'a t -> int

(** Elements inside {!consumed_batches}. *)
val consumed_events : 'a t -> int

(** Batches delivered to the ring but not yet popped (racy snapshot,
    exact when both sides have quiesced).  The residual term of the
    post-abort ledger — see {!drain}. *)
val in_flight_batches : 'a t -> int
