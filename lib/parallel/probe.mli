(** One run's instruments, and the one handle each seam of the
    parallel runtimes derives from them.

    A run may carry five instruments: a metrics registry
    ({!Dift_obs.Registry}), an execution tracer ({!Dift_obs.Trace}), a
    flight recorder ({!Dift_obs.Flight}), a fault plan ({!Chaos}) and
    a {!Watchdog} (whose progress table the seams' legs register
    into).  {!make} bundles whichever are on; {!off} has none.  Each
    seam of paper §2.1's helper design — the forwarding queue, the
    helper's drain, the shard exchange — derives its handle from the
    probe once, at construction, and every seam operation then makes
    one probe call, which updates whichever instruments are on and
    returns the chaos verdict.  The seam keeps only its protocol
    decision: what a lost batch means for its books.  With an
    instrument off, its part of a probe call is one branch.

    {1 Seam catalogue}

    [<ns>] is a feed ring's namespace: [parallel] for the one helper
    of the two-domain runtime, [parallel.shard<i>] for shard [i] of N.
    The tables in [docs/observability.md] and
    [docs/forwarding-protocol.md] give the payloads.

    {b Feed ring} ({!feed}: one per helper, a {!Channel}).
    - Metrics: gauges [<ns>.ring.capacity_batches], [.stalls],
      [.waits], [.drops], [.in_flight_batches] and
      [<ns>.forwarder.events], [.batches], [.dropped_batches],
      [.dropped_events], [.discarded_batches], [.discarded_events],
      [.consumed_batches], [.consumed_events] (the {!counts}); the
      histogram [<ns>.forwarder.batch_occupancy] (events per pushed
      batch on either wire, power-of-two buckets up to the batch
      size).
    - Trace (category [parallel]): per push a [ring.enqueue] span on
      the producer's track, named [ring.stall] when it parked on a
      full ring; per pop a [ring.dequeue] span on the consumer's,
      named [ring.wait] when it parked on an empty one; after each
      transfer a sample of the [ring.occupancy] counter track.
    - Flight (category [<ns>], on the acting domain):
      [ring.push]/[ring.pop] per delivered/consumed batch,
      [ring.drop]/[ring.discard] per lost batch, [ring.close],
      [ring.sweep] after an abort, and [ring.abort] exactly once per
      ring, on the domain that aborted it first, whatever the cause.
    - Progress legs: [<ns>.push] and [<ns>.pop], armed while that
      side is parked and ticked per delivered/consumed batch.
    - Chaos: namespace [<ns>].  A [Crash] crashes the intercepting
      side, after the batch in hand is booked as dropped (push) or
      discarded (pop); a lost batch never lets the run complete with
      a result inline tracking would not compute.

    {b Exchange ring} ({!exchange}: one per ordered shard pair of the
    {!Shard_engine} mesh).
    - Flight (category [xchg], [a] = source shard, [b] =
      destination): [xchg.push], [xchg.pop], and [xchg.dead] when a
      pop finds the mesh aborted.
    - Progress legs: [xchg.<src>.<dst>.push] and [.pop].
    - Chaos: namespace [xchg.<src>.<dst>].  A [Crash] crashes the
      intercepting shard, whose handler tears the whole
      mesh down.

    {b Helper lifecycle} ({!helpers}: one per helper domain).  One
    shard is named [helper], shard [i] of N [shard-<i>]: its trace
    track, its flight ring, and [helper.*]/[shard.*] below.
    - Metrics: one shard: counters [parallel.helper.busy_ns] and
      [wall_ns], the span [parallel.helper.batch] (per-batch
      latency), the gauge [parallel.helper.utilization_pct], and the
      engine's [core.engine.*]/[core.shadow.*] gauges ({!engine}).  N
      shards: gauges [parallel.shard<i>.busy_ns], [.wall_ns],
      [.utilization_pct], [.exchange_sent], and
      [parallel.router.cross_events].
    - Trace: a [helper.drain] span (category [parallel]) around the
      drain, one [engine.batch] span (category [core]) per batch; one
      shard also carries the engine's shadow-footprint samples
      ({!engine}).
    - Flight (category [run]): [helper.start]/[shard.start] and, when
      the helper dies of an exception, [helper.crash]/[shard.crash]
      ([a] = shard index); every shard's engine adds its
      [engine.progress] milestones (category [core], {!engine}).
    - Progress legs: [spawn.helper]/[spawn.shard<i>], armed from
      before [Domain.spawn] until the body runs;
      [join.helper]/[join.shard<i>], armed around the join; N shards
      also [work.shard<i>], ticked per handled event.
    - Chaos: the run's [Spawn] rules; a [Crash] is a spawn failure.

    {b Run markers} (the application domain).
    - Metrics: the VM's [vm.*] counters ({!Dift_vm.Obs_tool}).
    - Trace: the [app] track and its [app.run] span (category [vm]).
    - Flight (category [run], ring [app]): [run.start], [run.done],
      [run.error], [run.degrade].
    - Watchdog: the cascade hooks ({!on_miss}) and the deadline
      verdict ({!missed}). *)

type t

(** No instrument on. *)
val off : t

val make :
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  unit ->
  t

(** {1 Feed rings} *)

(** A feed ring's books ({!Channel.counts}), in events on either
    wire.  After both domains quiesce they close exactly:
    [batches = consumed_batches + discarded_batches +
    in_flight_batches] (see {!Channel.drain}). *)
type counts = {
  events : int;
      (** events in shipped batches, delivered or not: after
          {!Channel.close}, every event forwarded *)
  batches : int;
      (** batches actually delivered to the ring.  A batch lost to an
          abort or an injected failure is {e not} counted here: it
          lands in [dropped_batches] instead, so with [batch_size = 1]
          [events = batches + dropped_events] after {!Channel.close} *)
  dropped_batches : int;
      (** batches lost on the producer side: pushed after an abort,
          or in hand when an injected push fault crashed the
          producer *)
  dropped_events : int;  (** events inside [dropped_batches] *)
  discarded_batches : int;
      (** batches popped but not processed: in hand when the drain
          raised (an injected pop fault or a failing consumer), or
          recovered from the ring by the post-abort sweep (always [0]
          on a clean un-injected run) *)
  discarded_events : int;  (** events inside [discarded_batches] *)
  consumed_batches : int;  (** batches fully processed by the drain *)
  consumed_events : int;  (** events inside [consumed_batches] *)
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

type feed

val feed : t -> ns:string -> feed

(** The feed ring itself, with its progress legs. *)
val ring : feed -> capacity:int -> 'a Spsc.t

(** Register the ring's metrics, reading the books through [counts];
    [batch_size] is the events in a full batch, the occupancy
    histogram's last bucket. *)
val publish : feed -> 'a Spsc.t -> batch_size:int -> (unit -> counts) -> unit

(** Push one batch of [events] events: [true] if it landed, [false]
    if it is lost to an abort of the ring.
    @raise Chaos.Injected on an injected fault; the batch was not
    pushed. *)
val push : feed -> 'a Spsc.t -> 'a -> events:int -> bool

(** Pop one batch, with the injected crash scheduled at this pop, if
    any, for the consumer to raise once it has booked the batch.
    [None] at the end of the stream. *)
val pop : feed -> 'a Spsc.t -> ('a * exn option) option

(** The consumer fully processed a batch of [events] events. *)
val consumed : feed -> 'a Spsc.t -> events:int -> unit

(** A batch of [events] events lost producer-side; [total] batches
    so far. *)
val dropped : feed -> events:int -> total:int -> unit

(** A batch of [events] events popped but not processed; [total]
    batches so far. *)
val discarded : feed -> events:int -> total:int -> unit

(** The post-abort sweep recovered [batches] holding [events]. *)
val swept : feed -> batches:int -> events:int -> unit

val closed : feed -> events:int -> batches:int -> unit

(** Abort the ring; the first abort records [ring.abort]. *)
val abort : feed -> 'a Spsc.t -> unit

(** {1 Exchange rings} *)

type exchange

val exchange : t -> src:int -> dst:int -> exchange

val exchange_ring : exchange -> capacity:int -> 'a Spsc.t

(** Push to, or pop from, ring [src -> dst] of [mesh] (indexed
    [mesh.(src).(dst)]).  {!exchange_pop} returns [None] once the mesh
    is aborted.
    @raise Chaos.Injected on an injected fault. *)
val exchange_push : exchange -> 'a Spsc.t array array -> 'a -> unit

val exchange_pop : exchange -> 'a Spsc.t array array -> 'a option

(** {1 Helper lifecycle} *)

type helper

(** One handle per helper of a [shards]-helper cluster, its metrics
    registered.  [sent s] is shard [s]'s exchange vector count and
    [cross ()] the cross-shard event count. *)
val helpers :
  t -> shards:int -> sent:(int -> int) -> cross:(unit -> int) -> helper array

(** [engine t ~owner ~stats ~shadow_footprint process] is the function
    to call for each event in place of the engine's transfer function
    [process]: [process] itself when neither the tracer (for an
    [owner]) nor the flight recorder is on, otherwise [process] behind
    the engine's samples, taken just before the event is processed on
    the processing domain.
    - Trace, [owner] only: the [shadow.words] and
      [shadow.tainted_locations] counters (category [core]) on the
      first processed event and every 256th after it.
    - Flight: [engine.progress] (category [core], [a] = events
      counting this one, [b] = sink hits before it) on the first
      processed event and every 4,096th after it.
    With a registry, the [owner] also registers the [core.engine.*]
    and [core.shadow.*] gauges over [stats] and [shadow_footprint]
    ([(tainted locations, words)]).  The [owner] is the engine whose
    names the run reports: the inline engine, a one-shard helper's. *)
val engine :
  t ->
  owner:bool ->
  stats:Dift_core.Engine.stats ->
  shadow_footprint:(unit -> int * int) ->
  (Dift_vm.Event.view -> unit) ->
  Dift_vm.Event.view ->
  unit

(** Spawn the helper's domain running [body], wall-clocked.
    @raise Chaos.Injected on an injected spawn failure. *)
val spawn : helper -> (unit -> unit) -> unit Domain.t

(** Run the helper's drain, handing it the [around_batch] hook that
    times each batch. *)
val drain : helper -> (around_batch:((unit -> unit) -> unit) -> unit) -> unit

(** The helper dies of [exn]. *)
val crash : helper -> exn -> unit

val join : helper -> unit Domain.t -> unit

(** One handled event (the work pulse). *)
val work : helper -> unit

val busy_ns : helper -> int
val wall_ns : helper -> int

(** {1 Run markers} *)

(** The application domain: names its track and flight ring [app]
    and hands the machine the VM's counters. *)
val app : t -> Dift_vm.Machine.t -> unit

(** Run the application under the [app.run] span. *)
val app_run : t -> (unit -> 'a) -> 'a

(** [run.start]; also names the calling domain's flight ring [app]. *)
val run_start : t -> shards:int -> queue_capacity:int -> unit

val run_done : t -> events:int -> batches:int -> unit
val run_error : t -> leg:string -> unit
val run_degrade : t -> cut:int -> leg:string -> unit

(** Register a watchdog cascade hook (see {!Watchdog.on_miss}). *)
val on_miss : t -> name:string -> (unit -> unit) -> unit

(** The watchdog's miss, once one has fired. *)
val missed : t -> Watchdog.miss option
