(** Post-mortem crash bundles for the parallel runtimes.

    When a supervised run ({!Parallel.run_result},
    {!Parallel.run_sharded_result}) comes back with an
    {!Parallel.error}, everything a triage needs is still alive in
    the calling domain: the structured error itself, the final
    observability {!Dift_obs.Registry} snapshot, each domain's
    {!Dift_obs.Flight} tail (safe to read — the supervised runtimes
    join every domain before returning [Error]), the trace-drop
    accounting and the active fault plan.  This module assembles
    those into one self-describing JSON document and writes it
    atomically, so a crashed [diftc] invocation leaves exactly one
    readable artifact behind — the bundle [diftc inspect] renders.

    The bundle format is documented in [docs/observability.md]
    ("Flight recorder & crash bundles"). *)

(** The schema tag stamped into every bundle (the [schema] field):
    [dift-crash-bundle/1]. *)
val schema : string

(** The runtime geometry at the moment of the crash — enough to
    reproduce the channel shapes of the failed run. *)
type geometry = {
  g_runtime : string;  (** ["parallel"]: the two-domain runtime *)
  g_queue_capacity : int;  (** ring slots, in batches *)
  g_batch_size : int;  (** events per batch *)
  g_wire : Channel.wire;  (** forwarding wire ([`Coded] or [`Boxed]) *)
  g_forward_filter : bool;  (** producer-side liveness filter enabled *)
  g_deadline : string option;
      (** watchdog deadlines in {!Watchdog.deadlines_to_string}
          grammar, when supervision was on *)
  g_degrade : bool;  (** degraded-mode inline completion enabled *)
}

val geometry_json : geometry -> Dift_obs.Json.t

(** Structured rendering of a supervised failure: the failing leg
    ([app], [helper], [spawn] or [deadline], as
    {!Parallel.leg_to_string} names it), the primary exception, every secondary shutdown
    failure, and the channel accounting of {!Parallel.partial}.  When
    the primary exception is {!Watchdog.Deadline_exceeded}, a
    ["deadline"] object is added carrying the stalled seam, its frozen
    epoch, the blocked and deadline durations, and the full
    armed-seam portrait at detection time. *)
val error_json : Parallel.error -> Dift_obs.Json.t

(** [bundle ~error geometry] assembles the crash bundle:

    - ["schema"]: {!schema};
    - ["error"]: {!error_json};
    - ["geometry"]: {!geometry_json};
    - ["fault_plan"] (with [?chaos]): the active plan in
      {!Chaos.plan_to_string} grammar (a rule given as
      [parallel/pop@2=crash] reads [pop@2=crash], the same rule) plus
      the fired-fault count; the fired faults themselves are the
      [chaos.fire] events in ["flight"];
    - ["metrics"] (with [?obs]): the final registry snapshot
      ({!Dift_obs.Registry.to_json});
    - ["first_heartbeat"] (with [?first_heartbeat]): the run's beat 0,
      so [inspect] can show metric deltas;
    - ["trace"] (with [?trace]): buffered/dropped/capacity event
      accounting of the execution tracer;
    - ["flight"] (with [?flight]): every domain's recorder tail
      ({!Dift_obs.Flight.to_json}) — call only after the runtime
      returned, when all recording domains have joined;
    - every [(key, json)] of [?extra], appended last (workload name,
      input size, seed…). *)
val bundle :
  ?obs:Dift_obs.Registry.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?trace:Dift_obs.Trace.t ->
  ?first_heartbeat:Dift_obs.Json.t ->
  ?extra:(string * Dift_obs.Json.t) list ->
  error:Parallel.error ->
  geometry ->
  Dift_obs.Json.t

(** [write ~file j] writes [j] (pretty-printed, trailing newline)
    atomically: the bytes go to a [.tmp] sibling first and are
    renamed over [file] only once flushed — a reader never sees a
    truncated bundle, even if the writer dies mid-dump. *)
val write : file:string -> Dift_obs.Json.t -> unit
