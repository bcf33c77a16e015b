(** Watchdog deadlines and timeout-and-cascade shutdown for the
    parallel runtimes.

    The supervised-shutdown layer (PR "fault-injection and supervised
    shutdown") guarantees that a {e crash} on any leg cascades
    cleanly.  A {e wedge} — a peer that stops making progress without
    dying (a stall fault, a scheduling pathology, a deadlocked
    consumer) — previously hung the run forever.  This module closes
    that gap: every blocking seam of both runtimes publishes a
    progress epoch into a shared {!Dift_obs.Progress} table, and one
    watchdog (a {!Dift_obs.Sampler} job, so it can share the heartbeat
    sampler's domain) checks the table against configurable deadlines
    and, on a miss, drives the same idempotent abort cascade the crash
    paths use — so a wedged run terminates with a structured
    [`Deadline] error instead of hanging.

    {b Miss semantics — why there are no false positives.}  A leg's
    epoch parity says whether it is inside a blocking region
    ({!Dift_obs.Progress}); seams also {e tick} their leg once per
    unit of work.  A leg misses its deadline iff all three hold for at
    least the leg's deadline [D]:
    - the leg is {e armed} (parked inside a blocking region),
    - the leg's own epoch has not changed for [D],
    - the {e global} epoch sum has not changed for [D].

    The global condition is the load-bearing one: a consumer parked on
    an empty ring while the application computes between batches, or a
    join leg armed while a helper drains a long backlog, are armed and
    frozen for arbitrarily long — but some other leg is ticking, so
    the sum moves and nothing fires.  A genuine wedge, by
    construction, freezes {e every} leg (whatever the stalled side
    was feeding or draining backs up), so the sum freezes too, and the
    armed leg with the longest block names the stalled seam.  The cost
    of this precision: a wedge is detected only once the whole
    pipeline has backed up, which on a bounded ring takes at most one
    ring's worth of slack after the stall.

    {b Cascade.}  A run has one abortable resource, its feed channel,
    and the supervisor sets one teardown hook for it ({!on_miss}): the
    channel abort the crash paths run, idempotent.  Every seam's wedge
    backs up into that channel, so the hook needs no ordering against
    the stalled seam.  On a miss it runs under an exception handler;
    the abort unparks every blocked side, the helper terminates, and
    the supervisor — which must consult {!fired} after its joins —
    surfaces the structured [`Deadline] error.

    One watchdog supervises one run: create it on the run's sampler,
    pass it to [Parallel.run_result ~watchdog] /
    [run_sharded_result ~watchdog], and {!stop} it after the run
    returns.  Its hook and legs belong to that run; reuse across runs
    is not supported. *)

(** {1 Deadlines} *)

(** A default deadline plus per-seam overrides, matched by {e prefix}
    of the seam name (first matching override wins).  Seam names:
    [parallel.push]/[parallel.pop] (the feed ring), [spawn.helper]
    (spawn to first progress) and [join.helper] (the join). *)
type deadlines

(** [deadlines ?overrides default_ms].
    @raise Invalid_argument on a non-positive deadline or an empty
    prefix. *)
val deadlines : ?overrides:(string * int) list -> int -> deadlines

(** Parse the [--deadline-ms] grammar, mirroring the fault-plan one:
    {v
spec     := default_ms (';' override)*
override := seam_prefix '=' ms
    v}
    e.g. [500], [500;parallel=200;join.helper=2000].  An override
    whose prefix is not a prefix of one of the runtime's seams
    ([parallel.push], [parallel.pop], [spawn.helper], [join.helper])
    is rejected, as it could never apply. *)
val deadlines_of_string : string -> (deadlines, string) result

(** Render in the {!deadlines_of_string} grammar (round-trips). *)
val deadlines_to_string : deadlines -> string

(** The deadline for a seam: first override whose prefix matches, else
    the default. *)
val deadline_ms : deadlines -> string -> int

(** {1 Misses} *)

type miss = {
  m_seam : string;  (** the stalled seam (leg name) *)
  m_epoch : int;  (** its frozen epoch (odd: armed) *)
  m_blocked_ns : int;  (** how long it had been frozen when detected *)
  m_deadline_ns : int;  (** the deadline it missed *)
  m_armed : (string * int) list;
      (** every armed leg at detection time, with epochs — the
          blocked-seam portrait of the wedge *)
}

(** The structured error surfaced on the [`Deadline] leg. *)
exception Deadline_exceeded of miss

val pp_miss : miss Fmt.t

(** {1 The watchdog} *)

type t

(** [create ?obs ?flight ~sampler deadlines] — a fresh watchdog with
    its own empty {!progress} table, checking on [sampler], which the
    caller owns (it may share it with e.g. the heartbeat) and stops
    after {!stop}.  The check interval is a quarter of the shortest
    configured deadline, clamped to [2..50] ms, so a miss is detected
    within roughly 1.25x its deadline.  With [?obs], publishes
    [watchdog.checks] and [watchdog.fired] gauges plus the progress
    table's own.  With [?flight], a miss records [watchdog.miss]
    (detail = seam, a/b = blocked/deadline ms) and, when a hook is
    set, a [watchdog.cascade] event (detail = its name), on the
    detecting domain. *)
val create :
  ?obs:Dift_obs.Registry.t ->
  ?flight:Dift_obs.Flight.t ->
  sampler:Dift_obs.Sampler.t ->
  deadlines ->
  t

(** The progress table the supervised run's seams register into. *)
val progress : t -> Dift_obs.Progress.t

(** Set the run's cascade hook (the idempotent teardown of its
    channel); [name] labels its [watchdog.cascade] event.  Callable
    from the supervising domain before and during the run.
    @raise Invalid_argument if the hook is already set. *)
val on_miss : t -> name:string -> (unit -> unit) -> unit

(** The miss, once one has fired (atomic; readable from any domain).
    Supervisors consult this after their joins: a post-cascade run can
    otherwise look like an ordinary completion. *)
val fired : t -> miss option

(** Deadline checks run so far (atomic). *)
val checks : t -> int

(** The configured deadlines. *)
val deadline_spec : t -> deadlines

(** Run one deadline check synchronously on the calling domain
    (serialized with the sampler's checks).  Deterministic tests use
    this instead of waiting out the sampler interval. *)
val check_now : t -> unit

(** Unschedule the check job (synchronously — no check is in flight
    once this returns); the sampler keeps running.  Does not clear
    {!fired}. *)
val stop : t -> unit
