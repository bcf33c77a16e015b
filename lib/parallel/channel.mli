(** The forwarding plane (paper §2.1): the batched feed ring between
    the application core and one DIFT helper core, over either of two
    wire formats, so each runtime picks its encoding once and the
    feed/drain/supervision logic downstream is wire-agnostic.

    - [`Coded] — the default: flat {!Codec} batches of interned site
      ids and integer lanes (zero allocation per event in the steady
      state).
    - [`Boxed] — whole {!Dift_vm.Event.exec} records (one pointer per
      event, heap-shaped payload), in record batches.

    One ring slot carries one batch of the wire's own type, so the
    ring capacity is counted in {e batches} and a channel buffers up
    to [queue_capacity * batch_size] events.  The consumer empties
    each batch before its next pop, and the producer reopens the
    oldest batch it shipped once the consumer has popped the batch
    after it, so a channel owns at most [queue_capacity + 2] batches
    and steady-state forwarding allocates nothing per batch.  As in
    paper §2.1, the one bounded FIFO is the only link between the two
    cores: no ring carries batches back.  Consumers always see
    {!Dift_vm.Event.view}s: the coded wire decodes into its scratch
    view, the boxed wire refills one from each record.

    The runtime ({!Shard_engine}) creates one channel per helper:
    {!Parallel.run_result} forwards the whole event stream over a
    single channel to its one helper, and
    {!Parallel.run_sharded_result} creates one channel per shard (with
    a per-shard [?ns] metric namespace) and routes each event to the
    shards that participate in it.

    Shutdown protocol: the producer calls {!close}, which ships the
    trailing partial batch and closes the ring; {!drain} then returns
    once every forwarded event has been consumed.  If the consumer
    fails, {!abort} permanently unblocks the producer (further batches
    are dropped and counted) so the application can finish and observe
    the helper's exception at join time.  Strictly one producer domain
    and one consumer domain, like the underlying {!Spsc} ring.

    See [docs/forwarding-protocol.md] for the full protocol. *)

open Dift_vm

type wire = [ `Boxed | `Coded ]

val pp_wire : wire Fmt.t

(** The default geometry of every runtime's channels: ring slots, and
    events per batch.  Together they hold 4,096 events in flight; the
    large batch spreads each batch's handoff over many events. *)
val default_queue_capacity : int

val default_batch_size : int

type t

(** [create ~wire ~queue_capacity ~batch_size ~table ()] — a ring of
    [queue_capacity] batch slots, each batch holding up to
    [batch_size] events.  The coded wire forces [table] (the interned
    site table is only built when a coded channel actually needs it).

    [probe] (default {!Probe.off}) carries the run's instruments; the
    channel derives its feed-ring seam from it under the namespace
    [ns] (default ["parallel"]; the sharded runtime passes
    [parallel.shard<i>]).  Its metrics, trace spans, flight events,
    progress legs and fault-injection seam are catalogued in
    {!Probe}, whatever the wire.  An injected [Crash] on the ring
    crashes the side it intercepts: it surfaces from
    {!add}/{!add_view}/{!flush}/{!close} or {!drain} after the batch
    in hand is booked as dropped or discarded (see {!Probe.counts}).
    @raise Invalid_argument if either size is [< 1], or a coded
    channel's [batch_size] exceeds {!Codec.max_batch_size}. *)
val create :
  ?probe:Probe.t ->
  ?ns:string ->
  wire:wire ->
  queue_capacity:int ->
  batch_size:int ->
  table:Site.table Lazy.t ->
  unit ->
  t

val wire : t -> wire

(** {1 Producer side} *)

(** Forward the event in the view: the coded wire encodes it in
    place, the boxed wire ships its record
    ({!Dift_vm.Event.view_record}: the one allocation that wire pays
    per event, unless the record is already cached in the view).  To
    send one event to several boxed channels, cache its record first
    ({!Dift_vm.Event.view_to_exec}) so that they all ship the same
    one. *)
val add_view : t -> Event.view -> unit

(** Forward a boxed record. *)
val add : t -> Event.exec -> unit

(** Push the open partial batch, if any.  The sharded router calls
    this after every cross-shard event so no participant's copy can
    sit in an open batch while a peer shard blocks waiting for it. *)
val flush : t -> unit

(** Flush and close the ring: no more events will be forwarded. *)
val close : t -> unit

(** {1 Consumer side} *)

(** Apply [f] to every forwarded event, in program order, as a reused
    view: do not retain it (call {!Dift_vm.Event.view_to_exec} to
    materialise a snapshot).  Returns when the channel is closed and
    fully drained.

    [around_batch] wraps the processing of each ring slot (the thunk
    it receives runs [f] over the whole batch); the runtime uses it to
    time helper-domain busy periods without a per-event clock read.
    It must call the thunk exactly once.  [after_batch ~last_step:s]
    runs inside it, after the batch's last event, with that event's
    step: the liveness filter's epoch-advance hook and the degraded
    resume's cutoff.

    If [f] (or a hook) raises, the channel is aborted before the
    exception propagates, so a producer parked against a full ring is
    released: its pushes become counted drops instead of a wedge.

    {b Abort accounting.}  When drain ends by abort (its own after a
    raise, or another side's), it {e sweeps} the batches still
    buffered in the ring into [discarded_batches]: they were delivered
    but can never be consumed, and the producer cannot publish after
    an abort, so without the sweep up to [queue_capacity] batches
    would vanish from the books.  After both domains quiesce the
    ledger closes exactly: [batches = consumed_batches +
    discarded_batches + in_flight_batches], where [in_flight_batches]
    is non-zero only for a push that raced the abort flag itself. *)
val drain :
  ?around_batch:((unit -> unit) -> unit) ->
  ?after_batch:(last_step:int -> unit) ->
  t ->
  f:(Event.view -> unit) ->
  unit

(** Consumer gives up (helper crash): unblocks the producer for good.
    Idempotent; the first abort of the ring, whichever side makes it,
    records [ring.abort]. *)
val abort : t -> unit

(** A snapshot of the channel's books, in events on both wires.  Each
    side writes its own counters, so read them from that side or
    after both have quiesced; the ring counters are atomic. *)
val counts : t -> Probe.counts
