(** The DIFT worker and the helper that runs it (paper §2.1): one
    unmodified sequential {!Dift_core.Engine}, driven either directly
    by the machine on the calling domain ({!Make.solo}, the engine of
    {!Parallel.run_inline}) or by one helper domain draining a
    {!Channel} ({!Make.cluster}, the runtime of {!Parallel.run_result}
    and {!Parallel.run_sharded_result}).

    The helper takes the two-domain runtime's names: channel namespace
    [parallel], the [helper] track and flight ring, the
    [parallel.helper.*] metrics and the [spawn.helper]/[join.helper]
    watchdog legs.  It records the step of the last batch it fully
    processed, so a degraded run can resume there ({!Make.resume}).

    The module is exposed so tests can feed machine runs through a
    real helper domain ({!Make.feed_view}) and compare it with the
    solo worker. *)

open Dift_isa
open Dift_vm
open Dift_core

(** The helper's activity summary, reported by {!Make.shard_stat}
    after a run. *)
type shard_stat = {
  fed : int;  (** events the application handed the channel *)
  handled : int;  (** events the helper processed *)
  batches : int;  (** ring batches actually delivered *)
  dropped_batches : int;
      (** batches lost producer-side (post-abort or injected) *)
  dropped_events : int;  (** events inside [dropped_batches] *)
  discarded_batches : int;
      (** batches popped but not processed (the batch in hand at a
          crash, and the post-abort sweep) *)
  discarded_events : int;  (** events inside [discarded_batches] *)
  busy_ns : int;  (** time spent inside batch processing *)
  wall_ns : int;  (** helper wall time, spawn to drain end *)
  producer_stalls : int;  (** app blocked on the full ring *)
  consumer_waits : int;  (** helper blocked on the empty ring *)
}

(** Raised by {!Make.start} when the helper domain could not be
    spawned (the payload is the underlying spawn exception).  The
    channel is already aborted when this escapes. *)
exception Spawn_failure of exn

(** A failed run, as reported by {!Make.finish_result}: [f_primary] is
    what the helper died of when [f_helper], else what closing the
    feed raised on the application side. *)
type failure = { f_primary : exn; f_helper : bool }

(** [sink_hash ~step sink tainted] is one sink observation's share of
    the sink-trace hash.  The hash of a run is the sum of its
    observations' shares, so the step inside each share keeps the
    trace's order information.  Every runtime folds the same
    observations, so the sums agree across configurations. *)
val sink_hash : step:int -> Engine.sink -> bool -> int

(** [entry_hash loc code] is one shadow entry's share of the shadow
    fingerprint, [code] being its taint as an integer ([Bool.to_int]
    in the Bool domain).  The fingerprint sums every entry's share, so
    it does not depend on the shadow's iteration order. *)
val entry_hash : Loc.t -> int -> int

(** The worker over one taint domain. *)
module Make (D : Taint.DOMAIN) : sig
  (** This worker's engine instantiation (independent of any other
      [Engine.Make (D)] application). *)
  module E : module type of Engine.Make (D)

  (** {1 Workers} *)

  type worker

  (** [solo ~record_sinks program] is the engine plus its sink
    bookkeeping.  Every sink folds into the worker's {!sink_hash} sum;
    with [record_sinks], every sink is also recorded (step, sink,
    taint) for {!summary}.  Driven by the machine through {!transfer},
    it is the sequential reference: the engine of
    [Parallel.run_inline] and of the tests' oracle. *)
  val solo : ?policy:Policy.t -> record_sinks:bool -> Program.t -> worker

  (** The worker's engine. *)
  val engine : worker -> E.t

  (** [instrument probe w] puts [w]'s engine behind the run's
      instruments: from here on [w] processes every event through
      {!Probe.engine}'s function.  {!cluster} does this for its
      worker. *)
  val instrument : Probe.t -> worker -> unit

  (** The per-event function of [w], read in place from a view:
      {!E.process_view} on its engine, or {!Probe.engine}'s wrapper of
      it once {!instrument}ed. *)
  val transfer : worker -> Event.view -> unit

  (** {1 Results} *)

  (** Everything a run reports about its worker, directly comparable
      against a sequential run. *)
  type summary = {
    m_events : int;  (** engine events *)
    m_sources : int;  (** taint injections *)
    m_sink_hits : int;  (** sinks reached by non-bottom taint *)
    m_sink_hash : int;
        (** the sink-trace hash: {!sink_hash} summed over every sink
            observation (a tainted one is one whose taint is not
            bottom) *)
    m_sinks : (int * Engine.sink * D.t * Event.exec option) list;
        (** the recorded sinks in step order: every sink of a worker
            made with [record_sinks] (without event records), none for
            a cluster unless {!record_sink_events} asked for them (with
            their event records) *)
    m_tainted_locations : int;
    m_shadow_words : int;
    m_fingerprint : int;
        (** the shadow fingerprint: {!entry_hash} summed over every
            (loc, taint) entry, so a difference in any one entry
            changes it (up to hash collisions) *)
  }

  (** The worker's results; for a cluster's worker, call only after
      the helper joined. *)
  val summary : worker -> summary

  (** {1 The helper: a worker, its channel and its domain} *)

  type cluster

  (** [cluster program] assembles an instrumented worker and its
      inbound {!Channel} (namespace [parallel]).  No domain runs yet —
      call {!start}.

      [probe] (default {!Probe.off}) carries the run's instruments:
      the channel, the helper's spawn, drain and join, and the engine
      derive their handles from it, with the metrics, trace spans,
      flight events, progress legs and fault namespaces the catalogue
      in {!Probe} lists.  With a watchdog, the cluster also registers
      its cascade hook (abort the channel) under the name [parallel],
      so a deadline miss tears the run down; the supervisor must
      consult the watchdog after {!finish_result}, since a
      post-cascade run can complete looking ordinary.

      [?wire] picks the channel's encoding (default [`Coded], the
      {!Codec} outcome wire; [`Boxed] forwards whole event records);
      both wires are result-identical.  With [?filter] (created by the
      caller with one slot), the feeder consults the producer-side
      taint-liveness filter before forwarding each event, and the
      helper publishes taint and advances the filter's epoch after
      each batch — see {!Livefilter} for the soundness argument.
      @raise Invalid_argument for a channel geometry {!Channel.create}
      rejects. *)
  val cluster :
    ?policy:Policy.t ->
    ?probe:Probe.t ->
    ?queue_capacity:int ->
    ?batch_size:int ->
    ?wire:Channel.wire ->
    ?filter:Livefilter.t ->
    Program.t ->
    cluster

  (** Have the helper record its sinks with their event records
      ({!Event.view_to_exec}) in [m_sinks], for a client sink callback
      run after the join, and the channel forward each sink event's
      value ({!Channel.forward_sink_values}), which the coded wire
      otherwise leaves out.  Call before {!start}; without it a sink
      costs the helper one addition to its hash and no record. *)
  val record_sink_events : cluster -> unit

  (** Forward one event from the application domain, read in place
      from its view (through the filter, if any). *)
  val feed_view : cluster -> Event.view -> unit

  (** Spawn the helper domain, draining the channel through the
      worker.  A failing helper aborts the channel before it dies, so
      the application never wedges against a full ring.
      @raise Spawn_failure if the domain cannot be spawned; the
      channel is aborted first. *)
  val start : cluster -> unit

  (** Close the channel (flushing the trailing batch).  Idempotent.
      If the trailing flush raises (an injected fault), the channel is
      closed or aborted anyway, so the helper still terminates, and
      the exception is re-raised.  {!finish_result} calls this; a
      supervisor calls it first to time the application domain up to
      the close. *)
  val close_feed : cluster -> unit

  (** Abort the channel after a crash on the application domain, so
      the helper terminates and {!finish_result}'s join returns. *)
  val abort : cluster -> unit

  (** Close the channel ({!close_feed}), join the helper domain and
      return the worker's {!summary}.  Always joins (never leaks the
      domain), and reports a failure as a {!failure} value instead of
      raising, so callers can still read {!shard_stat}. *)
  val finish_result : cluster -> (summary, failure) result

  (** Where a degraded run continues on the calling domain, after the
      helper failed and was joined: [(cut, w)] — process every event
      whose step is past [cut] through {!transfer} [w], then take
      {!summary} [w].  [w] is the helper's own worker, instruments and
      all, so its milestones continue on the calling domain's ring;
      [cut] is the step of the last batch the helper fully processed
      ([-1] when none was). *)
  val resume : cluster -> int * worker

  (** The helper's activity after {!finish_result}. *)
  val shard_stat : cluster -> shard_stat
end
