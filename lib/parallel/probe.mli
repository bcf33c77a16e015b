(** One run's instruments, and the one handle each seam of the
    parallel runtimes derives from them.

    A run may carry five instruments: a metrics registry
    ({!Dift_obs.Registry}), an execution tracer ({!Dift_obs.Trace}), a
    flight recorder ({!Dift_obs.Flight}), a fault plan ({!Chaos}) and
    a {!Watchdog} (whose progress table the seams' legs register
    into).  {!make} bundles whichever are on; {!off} has none.  Each
    seam of paper §2.1's helper design — the forwarding queue, the
    helper's drain and the engine — derives its handle from the probe
    once, at construction, and every seam operation then makes one
    probe call, which updates whichever instruments are on and returns
    the chaos verdict.  The seam keeps only its protocol decision:
    what a lost batch means for its books.  With an instrument off,
    its part of a probe call is one branch.

    The probe is the run's one fault point.  The feed handle counts
    pushes and pops and the helper handle counts spawns; at each
    occurrence the probe asks {!Chaos.fire} what the plan schedules
    there, records every fired fault as a [chaos.fire] flight event
    (category [chaos], [a] = occurrence index, [detail] =
    [parallel/pop=crash], [spawn=stall:5000], ...) on the intercepting
    domain, sleeps out its stall and raises its crash
    ({!Chaos.Injected}, [injected crash at parallel/pop #2]).  So a
    crash bundle always carries a flight event from the domain the
    fault hit.

    {1 Seam catalogue}

    The tables in [docs/observability.md] and
    [docs/forwarding-protocol.md] give the payloads.

    {b Feed ring} ({!feed}: the helper's {!Channel}, namespace
    [parallel]).
    - Metrics: gauges [parallel.ring.capacity_batches], [.stalls],
      [.waits], [.drops], [.in_flight_batches] and
      [parallel.forwarder.events], [.words], [.batches],
      [.dropped_batches], [.dropped_events], [.discarded_batches],
      [.discarded_events], [.consumed_batches], [.consumed_events]
      (the {!counts}); the histogram
      [parallel.forwarder.batch_occupancy] (events per pushed batch on
      either wire, power-of-two buckets up to the batch size).
    - Trace (category [parallel]): per push a [ring.enqueue] span on
      the producer's track, named [ring.stall] when it parked on a
      full ring; per pop a [ring.dequeue] span on the consumer's,
      named [ring.wait] when it parked on an empty one; after each
      transfer a sample of the [ring.occupancy] counter track.
    - Flight (category [parallel], on the acting domain):
      [ring.push]/[ring.pop] per delivered/consumed batch,
      [ring.drop]/[ring.discard] per lost batch, [ring.close],
      [ring.sweep] after an abort, and [ring.abort] exactly once, on
      the domain that aborted the ring first, whatever the cause.
    - Progress legs: [parallel.push] and [parallel.pop], armed while
      that side is parked and ticked per delivered/consumed batch.
    - Chaos: the plan's [Push]/[Pop] rules, counted per ring side
      ([parallel/push], [parallel/pop]).  A [Crash] crashes the
      intercepting side, after the batch in hand is booked as dropped
      (push) or discarded (pop); a lost batch never lets the run
      complete with a result inline tracking would not compute.

    {b Helper lifecycle} ({!helper}), named [helper]: its trace track,
    its flight ring, and [helper.*] below.
    - Metrics: counters [parallel.helper.busy_ns] and [wall_ns], the
      span [parallel.helper.batch] (per-batch latency), the gauge
      [parallel.helper.utilization_pct].
    - Trace: a [helper.drain] span (category [parallel]) around the
      drain, one [engine.batch] span (category [core]) per batch.
    - Flight (category [run]): [helper.start] and, when the helper
      dies of an exception, [helper.crash].
    - Progress legs: [spawn.helper], armed from before [Domain.spawn]
      until the body runs; [join.helper], armed around the join.
    - Chaos: the plan's [Spawn] rules ([spawn]); a [Crash] is a spawn
      failure.

    {b Engine} ({!engine}, on whichever domain processes the events).
    - Metrics: the [core.engine.*]/[core.shadow.*] gauges.
    - Trace: the shadow-footprint counter samples (category [core]).
    - Flight: the [engine.progress] milestones (category [core]).

    {b Run markers} (the application domain).
    - Metrics: the VM's [vm.*] counters ({!Dift_vm.Obs_tool}).
    - Trace: the [app] track and its [app.run] span (category [vm]).
    - Flight (category [run], ring [app]): [run.start], [run.done],
      [run.error], [run.degrade].
    - Watchdog: the cascade hook ({!on_miss}) and the deadline
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
  words : int;
      (** wire words in those batches: {!Codec.batch_words} on the
          coded wire, one record pointer per event on the boxed one *)
  created_batches : int;
      (** batches the channel allocated: at most [queue_capacity + 2],
          as it reopens the ones the consumer is done with and keeps
          one whose push did not land *)
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

val feed : t -> feed

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

(** {1 Helper lifecycle} *)

type helper

(** The helper's handle, its metrics registered. *)
val helper : t -> helper

(** [engine t ~stats ~shadow_footprint process] is the function to
    call for each event in place of the engine's transfer function
    [process]: [process] itself when neither the tracer nor the flight
    recorder is on, otherwise [process] behind the engine's samples,
    taken just before the event is processed on the processing domain.
    - Trace: the [shadow.words] and
      [shadow.tainted_locations] counters (category [core]) on the
      first processed event and every 256th after it.
    - Flight: [engine.progress] (category [core], [a] = events
      counting this one, [b] = sink hits before it) on the first
      processed event and every 4,096th after it.
    With a registry, it also registers the [core.engine.*] and
    [core.shadow.*] gauges over [stats] and [shadow_footprint]
    ([(tainted locations, words)]). *)
val engine :
  t ->
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

(** {1 Run markers} *)

(** The application domain: names its track and flight ring [app]
    and hands the machine the VM's counters. *)
val app : t -> Dift_vm.Machine.t -> unit

(** Run the application under the [app.run] span. *)
val app_run : t -> (unit -> 'a) -> 'a

(** [run.start]; also names the calling domain's flight ring [app]. *)
val run_start : t -> queue_capacity:int -> unit

val run_done : t -> events:int -> batches:int -> unit
val run_error : t -> leg:string -> unit
val run_degrade : t -> cut:int -> leg:string -> unit

(** Set the watchdog's cascade hook (see {!Watchdog.on_miss}). *)
val on_miss : t -> name:string -> (unit -> unit) -> unit

(** The watchdog's miss, once one has fired. *)
val missed : t -> Watchdog.miss option
