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

    [probe] (default {!Probe.off}) carries the run's instruments; the
    channel derives its feed-ring seam from it under the namespace
    [ns] (default ["parallel"]; the sharded runtime passes
    [parallel.shard<i>]).  Its metrics, trace spans, flight events,
    progress legs and fault-injection seams — the event ring's and
    the free list's [ring.free.<ns>] — are catalogued in {!Probe}.
    Injected push failures become counted [dropped_batches], injected
    pop failures counted [discarded_batches] (see {!counts}), and
    injected raises surface from {!flush}/{!drain} after accounting.

    [escalate] (default [false]) marks a channel whose losses would
    wedge a protocol riding on it: injected drop/abort faults are then
    served as raises instead of counted losses (see
    {!Chaos.instance}).  The sharded engine sets it on the
    request/reply feed rings.

    [blank], when given, overwrites every consumed slot before its
    batch goes back to the producer, so a recycled batch does not keep
    its elements alive until they are overwritten.  Without it the
    elements stay, for {!reusable}.
    @raise Invalid_argument if either size is [< 1]. *)
val create :
  ?probe:Probe.t ->
  ?escalate:bool ->
  ?blank:'a ->
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
    counter in {!counts} moves by [n]; batch and ring-occupancy
    accounting still move by one element. *)
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
    buffered in the ring into [discarded_batches] — they were
    delivered but can never be consumed, and the producer cannot
    publish after an abort, so without the sweep up to
    [queue_capacity] batches would vanish from the books.  After both
    domains quiesce the ledger closes exactly:
    [batches = consumed_batches + discarded_batches +
    in_flight_batches] (see {!counts}), where [in_flight_batches] is
    non-zero only for a push that raced the abort flag itself. *)
val drain :
  ?around_batch:((unit -> unit) -> unit) -> 'a t -> f:('a -> unit) -> unit

(** Consumer gives up (helper crash): unblocks the producer for good.
    Idempotent; the first abort of the ring, whichever side makes it,
    records [ring.abort]. *)
val abort : 'a t -> unit

(** {1 Accounting} *)

(** The channel's books, event counters in logical events ({!add_n}
    weights).  After both domains quiesce they close exactly (see
    {!drain}). *)
type counts = Probe.counts = {
  events : int;  (** elements accepted by {!add} (delivered or not) *)
  batches : int;
      (** batches actually delivered to the ring.  A batch lost to an
          abort or an injected failure is {e not} counted here — it
          lands in [dropped_batches] instead, so with [batch_size = 1]
          [events = batches + dropped_events] after {!close} *)
  dropped_batches : int;
      (** batches lost on the producer side: pushed after an {!abort},
          or failed by an injected fault *)
  dropped_events : int;  (** elements inside [dropped_batches] *)
  discarded_batches : int;
      (** batches popped but not processed — an injected pop failure
          discarded them, or the post-abort sweep recovered them from
          the ring (always [0] on a clean un-injected run) *)
  discarded_events : int;  (** elements inside [discarded_batches] *)
  consumed_batches : int;  (** batches fully processed by {!drain} *)
  consumed_events : int;  (** elements inside [consumed_batches] *)
  producer_stalls : int;
      (** times the producer blocked on a full ring (backpressure;
          the wall-clock analogue of the simulator's [stall_cycles]) *)
  consumer_waits : int;
      (** times the consumer blocked on an empty ring (helper idle
          episodes) *)
  in_flight_batches : int;
      (** batches delivered but not yet popped (racy snapshot, exact
          when both sides have quiesced): the residual term of the
          post-abort ledger *)
}

(** A snapshot of the books.  Each side writes its own counters, so
    read them from that side or after both have quiesced; the ring
    counters are atomic. *)
val counts : 'a t -> counts
