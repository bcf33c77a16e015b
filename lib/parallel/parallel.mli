(** The parallel DIFT runtime (paper §2.1, "Exploiting multicores").

    Where [Dift_multicore.Helper] {e simulates} the main-core /
    helper-core split with a cycle model, this module {e runs} it: the
    application executes in the calling OCaml 5 domain while one
    helper domain consumes the forwarded event stream through a
    bounded {!Channel} and drives the shared taint engine
    ({!Dift_core.Engine} over {!Dift_core.Taint.Bool}).  The numbers
    it reports are wall-clock, not modelled cycles — the software
    proof that the paper's decoupled architecture keeps the
    application core running while tracking proceeds elsewhere.

    There is one runtime: a supervisor over a {!Shard_engine} helper,
    reached through {!run_result} (and {!run_sharded_result}, the same
    runtime under the name the benchmark ledger calls).  Because the
    channel is FIFO and the VM's event stream is deterministic (seeded
    scheduling), every configuration computes exactly what
    {!run_inline} computes — asserted by the cross-validation tests in
    [test/test_parallel.ml] and [test/test_sharded.ml].

    {b Client sink callbacks.}  [on_sink] runs once per sink, on the
    {e calling} domain, after the helper joined, in step order.  The
    helper keeps a sink's event record only when a callback is given;
    without one, a sink costs the helper one addition to the
    sink-trace hash.  An exception from [on_sink] fails the run on the
    [`App] leg.  {!run_inline} calls [on_sink] as each sink happens.

    {b Degraded completion.}  With [~degrade:`Inline], a failure of any
    non-application leg (helper crash, spawn failure, deadline miss)
    is completed on the calling domain, and the run comes back [Ok],
    flagged [degraded], with a result bit-identical to {!run_inline}'s:
    the replay processes only the events past the last batch the
    helper fully processed. *)

open Dift_isa
open Dift_vm
open Dift_core

(** The boolean-taint engine every runtime runs: the {!Shard_engine}
    worker's engine, whose solo worker is {!run_inline}'s.  (An
    interface cannot name a module inside a functor application, so
    the signature is spelled as {!Dift_core.Engine.Make}'s own.) *)
module Bool_engine :
  module type of Engine.Make_over (Shadow.Make) (Taint.Bool)

(** The functional outcome of a tracked run — everything that must be
    identical between the parallel and the sequential runtime. *)
type result = {
  outcome : Event.outcome;
  events : int;  (** events the engine processed *)
  sources : int;  (** taint injections at input reads *)
  sink_hits : int;  (** sinks reached by tainted data *)
  sink_trace_hash : int;
      (** hash of every sink observation [(step, sink, tainted)]:
          {!Shard_engine.sink_hash} summed over them *)
  tainted_locations : int;
  shadow_words : int;
  taint_fingerprint : int;
      (** hash of the full final shadow state:
          {!Shard_engine.entry_hash} summed over every entry *)
}

(** {1 Supervised outcomes}

    The runtimes never re-raise a failure: every shutdown leg — helper
    crash mid-drain, application crash mid-run, spawn failure, an
    injected channel fault, a {!Watchdog} deadline miss, a raising
    [on_sink] — joins every domain it started and comes back as a
    structured {!error}, so a caller can distinguish {e which} side
    failed and still read coherent partial statistics. *)

(** Which leg of the protocol failed first. *)
type leg =
  [ `App  (** the application domain (including a trailing-flush
              failure on its side of the channel, and a raising
              [on_sink]) *)
  | `Helper  (** the helper domain *)
  | `Spawn  (** [Domain.spawn] itself failed; no run happened *)
  | `Deadline
    (** the {!Watchdog} detected a wedged seam and cascaded the
        shutdown; [e_exn] is {!Watchdog.Deadline_exceeded} naming the
        stalled seam, its frozen epoch and how long it was blocked.
        Whatever the legs then died of is in [e_secondary]. *) ]

(** Channel accounting at the moment the error was assembled — enough
    to reconcile how much work was fed, delivered and lost. *)
type partial = {
  p_events : int;  (** events accepted by the channel *)
  p_batches : int;  (** batches actually delivered *)
  p_dropped_batches : int;  (** batches lost producer-side *)
  p_dropped_events : int;  (** events inside those batches *)
  p_wall_ns : int;  (** wall time since the runtime was entered *)
}

type error = {
  e_leg : leg;
  e_exn : exn;  (** the primary failure *)
  e_secondary : exn list;
      (** failures of the {e other} legs, observed while shutting
          down (e.g. the helper's cascade after an app crash) *)
  e_partial : partial;
}

(** One line: failing leg, primary exception, secondary count and the
    partial channel accounting. *)
val pp_error : error Fmt.t

(** The leg's name in flight records and crash bundles: [app],
    [helper], [spawn] or [deadline]. *)
val leg_to_string : leg -> string

(** How a run that lost its parallel plane was completed anyway
    ([~degrade:`Inline]): the failing leg and its exception, plus the
    resume point — [d_cutoff_step] is the step of the last event the
    helper had fully processed ([-1] when nothing was, as after a
    spawn failure) and [d_replayed_events] how many events the inline completion
    processed past it. *)
type degraded = {
  d_leg : leg;
  d_exn : exn;
  d_cutoff_step : int;
  d_replayed_events : int;
}

val pp_degraded : degraded Fmt.t

type report = {
  result : result;
  queue_capacity : int;  (** ring slots, in batches *)
  batch_size : int;  (** events per batch *)
  wire : Channel.wire;  (** forwarding-plane encoding of the run *)
  filtered_events : int;
      (** events dropped producer-side by the taint-liveness filter
          ([0] with the filter off); [result.events] already adds them
          back, so it counts whole-program events on every
          configuration *)
  batches : int;  (** ring messages actually delivered *)
  dropped_batches : int;
      (** batches the producer lost to a failed plane: non-zero only
          on a [degraded] report, since any lost batch fails the run
          or degrades it *)
  dropped_events : int;  (** events inside [dropped_batches] *)
  producer_stalls : int;
      (** times the application domain blocked on a full ring *)
  consumer_waits : int;
      (** times the helper domain blocked on an empty ring *)
  main_wall_ns : int;  (** application-domain run time, to the close *)
  total_wall_ns : int;  (** until the helper joined *)
  degraded : degraded option;
      (** [Some _] iff the parallel plane failed and the run was
          completed by the degraded-mode inline replay; the [result]
          is then still bit-identical to {!run_inline}'s *)
}

type inline_report = {
  i_result : result;
  i_wall_ns : int;
}

(** {1 Entry points} *)

(** [run_result program ~input] — the two-domain runtime: [program]
    runs in the current domain while one spawned helper domain
    performs the taint tracking.

    - {b Geometry.}  [queue_capacity] ring slots of [batch_size]
      events, by default {!Channel.default_queue_capacity} (16) and
      {!Channel.default_batch_size} (256).
    - {b Wire.}  [wire] picks the forwarding-plane encoding (default
      [`Coded]: interned sites and flat {!Codec} batches, no
      allocation per forwarded event in the steady state; [`Boxed]
      forwards whole event records).  Both wires produce
      bit-identical results.
    - {b Filter.}  With [~forward_filter:true], the application domain
      drops events that provably cannot touch live taint (see
      {!Livefilter}); results stay bit-identical — only
      [filtered_events] and the forwarded volume change.  The filter
      stands down silently under [propagate_control].
    - {b Sinks and degrade.}  See the module preamble: [on_sink] runs
      on the calling domain after the join; [~degrade:`Inline]
      resumes after the helper's last fully processed batch.
    - {b Instruments.}  [?obs], [?trace], [?flight], [?chaos] and
      [?watchdog] make the run's one {!Probe}; its seam catalogue
      lists every metric, trace span, flight event, progress leg and
      fault namespace of the feed ring [parallel], the [helper]
      lifecycle and the [app] run markers.  The registry may be
      snapshotted from any domain, including while the run is in
      flight.  A wedged seam surfaces as a [`Deadline] error instead
      of a hang; the caller creates and {!Watchdog.stop}s the
      watchdog, and one watchdog supervises one run.

    @raise Invalid_argument before any domain starts if
    [queue_capacity] or [batch_size] is [< 1]. *)
val run_result :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  ?degrade:[ `Inline ] ->
  ?queue_capacity:int ->
  ?batch_size:int ->
  ?wire:Channel.wire ->
  ?forward_filter:bool ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  Program.t ->
  input:int array ->
  (report, error) Stdlib.result

(** [run_inline program ~input] — the sequential baseline and the
    reference every runtime must match: {!Shard_engine}'s solo worker
    ({!Shard_engine.Make.solo}) driven by the machine in the current
    domain: the runtime without a helper domain or channel.  The
    machine's tool is the worker's
    {!Shard_engine.Make.transfer}, the engine's transfer function
    behind {!Probe.engine}.  Its result is the worker's
    {!Shard_engine.Make.summary}, the same summary a degraded
    completion reports; [on_sink] runs as each sink happens.  The instruments
    see only the {!Probe} run markers and the engine: no [parallel.*]
    metrics (there is no channel), one [app] track and one [app]
    flight ring, carrying the engine's samples and milestones. *)
val run_inline :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  Program.t ->
  input:int array ->
  inline_report

(** What {!run_sharded_result} reports. *)
type sharded_report = {
  s_result : result;  (** comparable against {!run_inline} *)
  s_queue_capacity : int;  (** ring slots, in batches *)
  s_batch_size : int;  (** events per batch *)
  s_wire : Channel.wire;  (** forwarding-plane encoding of the run *)
  s_filtered_events : int;
      (** events dropped producer-side by the taint-liveness filter
          ([0] with the filter off); [s_result.events] already adds
          them back *)
  s_helper : Probe.counts;  (** the helper's books: its channel's *)
  s_main_wall_ns : int;  (** application-domain run time, to the close *)
  s_total_wall_ns : int;  (** until the helper joined *)
  s_degraded : degraded option;
      (** [Some _] iff the helper failed and the run was completed by
          the degraded-mode inline replay; [s_result] is then still
          bit-identical to {!run_inline}'s *)
}

(** [run_sharded_result ~shards:1 program ~input] is {!run_result}'s
    runtime — the same code, arguments and result — reporting a
    {!sharded_report}.  It keeps its name and signature because the
    benchmark ledger ([ledger/ledger.ml]) calls it.
    @raise Invalid_argument before any domain starts if [shards] is
    not [1], or if [queue_capacity] or [batch_size] is [< 1]. *)
val run_sharded_result :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  ?degrade:[ `Inline ] ->
  ?queue_capacity:int ->
  ?batch_size:int ->
  ?wire:Channel.wire ->
  ?forward_filter:bool ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  shards:int ->
  Program.t ->
  input:int array ->
  (sharded_report, error) Stdlib.result

(** {1 Baselines and comparisons} *)

(** Wall time of an uninstrumented run (the native baseline). *)
val native_wall_ns :
  ?config:Machine.config -> Program.t -> input:int array -> int

(** [speedup inline parallel]: inline wall time over parallel total
    wall time ([> 1.] when offloading wins). *)
val speedup : inline_report -> report -> float

(** Application-domain slowdown of the parallel run over an inline
    run ([< 1.] when the main domain finishes faster than inline —
    the paper's main-core overhead, wall-clock edition). *)
val main_ratio : inline_report -> report -> float
