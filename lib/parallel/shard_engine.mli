(** The sharded DIFT runtime's worker layer: N helper shards, each an
    unmodified sequential {!Dift_core.Engine} over the shard's slice
    of shadow memory, plus the cross-shard taint exchange.

    {2 Exact sharding by shadow windowing}

    A {!Router} partitions the location space; each worker owns the
    shadow entries of its own shard and nothing else.  An event whose
    locations span shards is delivered to every participant, and each
    participant derives its role from the event alone:

    - {e providers} (owners of read locations) send the taints of
      their read locations to the home shard, positional on the
      event's read list;
    - the {e home} shard (owner of the first written location) windows
      those remote taints into its own shadow with plain [Sh.set],
      runs the ordinary sequential [Engine.process] — so policies,
      sinks, stats and write stamping behave {e exactly} as in the
      sequential engine — then reads the remote write taints back out,
      ships them, and clears every remote location again;
    - {e receivers} (owners of written locations) await the home's
      write vector and store their share.

    The two legs are the "read-request/taint-reply" exchange of
    [docs/forwarding-protocol.md]; messages travel over a full mesh of
    {!Spsc} rings, one per ordered shard pair.  Because rings are
    FIFO, every shard processes its inbound events in global step
    order, and providers always send before receivers await, the
    protocol is deadlock-free (the argument is spelled out in the
    protocol document).

    The exchange is exact for every policy {e except}
    [propagate_control], whose per-thread control state entangles all
    events: {!Make.val-worker} rejects that policy on more than one
    shard, and a one-shard runtime (which exchanges nothing) runs it.

    {2 One shard is the two-domain runtime}

    A one-shard cluster has nothing to route or exchange: it builds no
    mesh, its feeder skips the router, its helper runs the engine
    directly, and it takes the two-domain runtime's names (channel
    namespace [parallel], the [helper] track and flight ring, the
    [parallel.helper.*] metrics, the [spawn.helper]/[join.helper]
    watchdog legs).  It also tracks the step of the last batch its
    helper fully processed, so a degraded run can resume there
    ({!Make.resume}).

    This module is the machinery under {!Parallel.run_result} and
    {!Parallel.run_sharded_result}, and its solo worker ({!Make.solo})
    is {!Parallel.run_inline}'s engine; it is exposed so tests can
    feed machine runs through real domain clusters ({!Make.feed_view})
    and the benchmark harness can replay recorded exchanges against
    isolated workers. *)

open Dift_isa
open Dift_vm
open Dift_core

(** Per-shard activity summary, reported by {!Make.shard_stats} after
    a cluster run. *)
type shard_stat = {
  shard : int;  (** shard index *)
  fed : int;  (** events the router handed this shard's channel *)
  handled : int;  (** events delivered to this shard (incl. assists) *)
  batches : int;  (** inbound ring batches actually delivered *)
  dropped_batches : int;
      (** inbound batches lost producer-side (post-abort or injected) *)
  dropped_events : int;  (** events inside [dropped_batches] *)
  discarded_batches : int;
      (** inbound batches popped but not processed (the batch in hand
          at a crash, and the post-abort sweep) *)
  discarded_events : int;  (** events inside [discarded_batches] *)
  busy_ns : int;  (** time spent inside batch processing *)
  wall_ns : int;  (** helper wall time, spawn to drain end *)
  producer_stalls : int;  (** app blocked on this shard's full ring *)
  consumer_waits : int;  (** shard blocked on its empty ring *)
  exchange_sent : int;  (** cross-shard taint vectors pushed *)
  exchange_received : int;  (** cross-shard taint vectors popped *)
}

(** Raised (and cascaded) when a peer shard died mid-protocol: an
    exchange pop returned end-of-stream because some shard aborted the
    mesh.  {!Make.finish_result} reports the original failure in
    preference to this cascade marker. *)
exception Shard_dead

(** Raised by {!Make.start} when a helper domain could not be spawned
    (the payload is the underlying spawn exception).  The cluster is
    already torn down when this escapes: channels aborted, every
    previously spawned shard joined. *)
exception Spawn_failure of exn

(** The structured outcome of a failed cluster run, as reported by
    {!Make.finish_result}: the primary exception (the first
    non-{!Shard_dead} failure, falling back to a close-time injected
    failure and then to {!Shard_dead} itself) plus every shard that
    died with its own exception. *)
type failure = {
  f_primary : exn;
  f_shards : (int * exn) list;  (** (shard index, its exception) *)
}

val pp_failure : failure Fmt.t

(** The default capacity of each exchange ring, in messages (256):
    {!Make.create_xchg}'s and {!Make.cluster}'s [xchg_capacity]. *)
val default_xchg_capacity : int

(** [sink_hash ~step sink tainted] is one sink observation's share of
    the sink-trace hash.  The hash of a run is the sum of its
    observations' shares: order-independent, so shards fold their own
    and a merge adds them up, while the step inside each share keeps
    the trace's order information.  Every runtime folds the same
    observations, so the sums agree across configurations. *)
val sink_hash : step:int -> Engine.sink -> bool -> int

(** [entry_hash loc code] is one shadow entry's share of the shadow
    fingerprint, [code] being its taint as an integer ([Bool.to_int]
    in the Bool domain).  The fingerprint sums every entry's share, so
    as with {!sink_hash}, disjoint shards add up in any order. *)
val entry_hash : Loc.t -> int -> int

(** The worker layer over one taint domain. *)
module Make (D : Taint.DOMAIN) : sig
  (** This worker's engine instantiation (independent of any other
      [Engine.Make (D)] application). *)
  module E : module type of Engine.Make (D)

  (** {1 The exchange mesh} *)

  (** One exchange message: the owning step (a FIFO self-check) and a
      taint vector positional on the event's read or write list. *)
  type msg = int * D.t array

  (** A full mesh of {!Spsc} rings, one per ordered shard pair. *)
  type xchg

  (** [create_xchg ~shards ()] builds the mesh.  [capacity] (default
      {!default_xchg_capacity}) bounds each ring (any value [>= 1] is
      deadlock-free; it only trades memory against provider stalls).
      With [~journal:true] every consumed message is also recorded,
      retrievable per ring with {!journal} — the benchmark harness
      uses this to replay a shard's inbound exchange against an
      isolated worker.

      Each ring derives its exchange seam from [probe] (default
      {!Probe.off}); the catalogue in {!Probe} lists its flight
      events, progress legs and fault namespace [xchg.<src>.<dst>].
      An injected [Crash] crashes the intercepting shard, which
      aborts the mesh, so the failure cascades as {!Shard_dead}
      instead of wedging a waiting peer; [Stall] only sleeps, leaving
      results bit-identical.
      @raise Invalid_argument if [capacity < 1]. *)
  val create_xchg :
    ?capacity:int ->
    ?journal:bool ->
    ?probe:Probe.t ->
    shards:int ->
    unit ->
    xchg

  (** Abort every ring in the mesh: blocked pops return, blocked
      pushes drop.  Used to cascade a shard failure. *)
  val abort_xchg : xchg -> unit

  (** The messages consumed from ring [src → dst], oldest first;
      [[]] unless the mesh was created with [~journal:true]. *)
  val journal : xchg -> src:int -> dst:int -> msg list

  (** Push recorded messages back into ring [src → dst] ahead of an
      isolated replay.  The ring capacity must accommodate them. *)
  val prefill : xchg -> src:int -> dst:int -> msg list -> unit

  (** {1 Workers} *)

  type worker

  (** [worker ~router ~xchg ~record_sinks ~shard program] is shard
      [shard]'s engine plus protocol state.  Every sink folds into the
      worker's {!sink_hash} sum; with [record_sinks], every sink is
      also recorded (step, sink, taint) for the deterministic merge.
      @raise Invalid_argument when the router has more than one shard
      and the policy enables [propagate_control] (see the module
      preamble). *)
  val worker :
    ?policy:Policy.t ->
    router:Router.t ->
    xchg:xchg ->
    record_sinks:bool ->
    shard:int ->
    Program.t ->
    worker

  (** Process one routed event, read in place from its view: run it
      locally, or play this shard's home/provider/receiver legs of the
      cross-shard exchange.  Both wires drain through it
      ({!Channel.drain} hands every shard a reused scratch view).  The
      view is read during the call only.  May block on the mesh;
      raises {!Shard_dead} if a peer aborted. *)
  val handle_view : worker -> Event.view -> unit

  (** The shard's underlying engine (its shadow holds only owned
      locations once all events are handled). *)
  val engine : worker -> E.t

  (** [instrument probe ~owner w] puts [w]'s engine behind the run's
      instruments: from here on [w] processes every event through
      {!Probe.engine}'s function ([owner] as there).  {!cluster} does
      this for its workers. *)
  val instrument : Probe.t -> owner:bool -> worker -> unit

  (** The per-event function [w] processes its local events with:
      {!E.process_view} on its engine, or {!Probe.engine}'s wrapper
      of it once {!instrument}ed. *)
  val transfer : worker -> Event.view -> unit

  (** [solo ~record_sinks program] is a worker alone: a one-shard
      router and no mesh, so every event is local, {!handle_view} is
      {!transfer} on every event, and driving {!transfer} directly is
      the same.  It is the
      sequential reference ({!merge} [[| w |]]): the engine of a
      degraded rerun ({!resume}), of [Parallel.run_inline] and of the
      sharded tests' oracle. *)
  val solo : ?policy:Policy.t -> record_sinks:bool -> Program.t -> worker

  (** Exchange vectors this worker pushed. *)
  val exchange_sent : worker -> int

  (** Exchange vectors this worker popped. *)
  val exchange_received : worker -> int

  (** {1 Deterministic merge} *)

  (** The order-independent union of every shard's results, directly
      comparable against a sequential run. *)
  type merged = {
    m_events : int;  (** engine events (each event has one home) *)
    m_sources : int;  (** taint injections *)
    m_sink_hits : int;  (** sinks reached by non-bottom taint *)
    m_sink_hash : int;
        (** the sink-trace hash: {!sink_hash} summed over every sink
            observation (a tainted one is one whose taint is not
            bottom) *)
    m_sinks : (int * Engine.sink * D.t * Event.exec option) list;
        (** the recorded sinks, globally step-ordered: every sink of a
            worker made with [record_sinks] (without event records),
            none for a cluster unless {!record_sink_events} asked for
            them (with their event records) *)
    m_tainted_locations : int;  (** summed over disjoint shards *)
    m_shadow_words : int;  (** summed over disjoint shards *)
    m_fingerprint : int;
        (** the shadow fingerprint: {!entry_hash} summed over every
            (loc, taint) entry of the union shadow, so a difference in
            any one entry changes it (up to hash collisions) *)
  }

  (** Merge the workers of one cluster (call only after all domains
      joined): every event has one home shard and the shards' shadows
      are disjoint, so the counts, hashes and fingerprints add up. *)
  val merge : worker array -> merged

  (** {1 Clusters: workers + inbound rings + helper domains} *)

  type cluster

  (** [cluster ~shards program] assembles a router, the exchange mesh,
      one worker and one inbound {!Channel} per shard (namespace
      [parallel.shard<i>]).  One shard takes the two-domain runtime's
      shape and names instead (see the module preamble).  No domains
      run yet — call {!start}.

      [probe] (default {!Probe.off}) carries the run's instruments:
      every seam — each inbound channel, each exchange ring, each
      helper's spawn, drain and join — derives its handle from it,
      with the metrics, trace spans, flight events, progress legs and
      fault namespaces the catalogue in {!Probe} lists; every worker
      is {!instrument}ed, the one of a one-shard cluster as the
      [owner].  With a
      watchdog, the cluster also registers its cascade hooks (abort
      each feed channel, then the mesh) so a deadline miss tears the
      run down in dependency order; the supervisor must consult the
      watchdog after {!finish_result}, since a post-cascade run can
      complete looking ordinary.

      [?wire] picks the forwarding-plane encoding for every shard's
      inbound channel (default [`Coded] — the de-boxed {!Codec} plane;
      [`Boxed] forwards whole event records as before); both wires are
      result-identical.  With [?filter] (created by the caller with
      one slot per shard), the feeder consults the producer-side
      taint-liveness filter before routing each event, and every shard
      publishes taint and advances its epoch after each batch — see
      {!Livefilter} for the soundness argument.

      Each exchange ring holds [xchg_capacity] messages (default
      {!default_xchg_capacity}, which the runtimes use; tests force
      ring-full blocking with a small one).  Shadow memory is
      partitioned in blocks of [2{^Router.default_block_bits}]
      locations.
      @raise Invalid_argument for [shards < 1], a channel geometry
      {!Channel.create} rejects, or [propagate_control] on more than
      one shard (see {!val-worker}). *)
  val cluster :
    ?policy:Policy.t ->
    ?probe:Probe.t ->
    ?queue_capacity:int ->
    ?batch_size:int ->
    ?xchg_capacity:int ->
    ?wire:Channel.wire ->
    ?filter:Livefilter.t ->
    shards:int ->
    Program.t ->
    cluster

  (** Have every shard record its sinks with their event records
      ({!Event.view_to_exec}) in [m_sinks], for a client sink callback
      run after the join.  Call before {!start}; without it a
      sink costs its shard one addition to its hash and no record. *)
  val record_sink_events : cluster -> unit

  (** Route one event from the application domain, read in place from
      its view: deliver it to every participant shard's inbound
      channel, flushing all of them when the event crosses shards (see
      {!Channel.flush}).  One shard takes every event without a
      router. *)
  val feed_view : cluster -> Event.view -> unit

  (** Spawn one helper domain per shard, each draining its inbound
      channel through {!handle_view}.  A failing shard aborts its channel
      and the whole mesh so the failure cascades instead of wedging.
      @raise Spawn_failure if a domain cannot be spawned; the already
      spawned shards are joined and every channel aborted first, so
      the cluster never leaks a domain. *)
  val start : cluster -> unit

  (** Close every inbound channel (flushing trailing batches): the
      shutdown fan-in.  Idempotent.  If a trailing flush raises (an
      injected fault), every channel is closed anyway, so the shards
      still terminate, and the exception is re-raised.
      {!finish_result} calls this; a supervisor calls it first to time
      the application domain up to the close. *)
  val close_feed : cluster -> unit

  (** Emergency teardown after a feeder crash mid-event: aborts every
      inbound channel and the exchange mesh.  A cross-shard event that
      reached only some participants would otherwise strand its home
      shard on a provide leg forever; after [abort], every shard
      terminates (normal drain end or the [Shard_dead] cascade) and
      {!finish_result}'s joins return.  Call it before
      {!finish_result} when the domain feeding {!feed_view} raised. *)
  val abort : cluster -> unit

  (** Close the channels ({!close_feed}), join every helper domain and
      merge.  Always joins every domain (never leaks one), and reports
      failures as a structured {!failure} value instead of raising, so
      callers can inspect which shards died and still read partial
      {!shard_stats}. *)
  val finish_result : cluster -> (merged, failure) result

  (** Where a degraded run continues on the calling domain, after the
      cluster failed and was joined: [(cut, w)] — process every event
      whose step is past [cut] through [w] ({!handle_view}), then
      {!merge} [[| w |]].  One shard resumes its own worker after the
      last batch its helper fully processed ([cut] is [-1] when none
      was), instruments and all, so its milestones continue on the
      calling domain's ring.  N shards have no consistent cut
      mid-protocol, so [w] is a fresh, uninstrumented worker and [cut]
      is [-1]: a rerun from scratch.  [w]
      records sinks iff {!record_sink_events} was called. *)
  val resume : cluster -> int * worker

  (** Events that crossed shards. *)
  val cross_events : cluster -> int

  (** Total exchange vectors pushed across the mesh. *)
  val exchange_messages : cluster -> int

  (** Per-shard activity after {!finish_result}. *)
  val shard_stats : cluster -> shard_stat array
end
