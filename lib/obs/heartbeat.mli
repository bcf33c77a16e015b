(** The heartbeat sampler: periodic registry snapshots appended to a
    JSONL file, so a wedged or crashed run is diagnosable from
    outside while it is still running (tail the file) and after the
    fact (crash bundles embed the first beat as the delta baseline).

    {!start} truncates [file], writes beat 0 immediately, then
    schedules a job on the caller's sampler domain that appends one
    line per interval:

    {v {"seq":N,"t_ns":NANOSECONDS_SINCE_START,"metrics":{…}} v}

    where [metrics] is the registry's documented JSON snapshot schema,
    compacted to one line.  Every line is flushed as written, so a
    reader always sees complete records.  {!stop} writes one final
    beat and detaches from the sampler; it is idempotent.

    Periodic beats are written by a {!Sampler} job, so any number of
    heartbeats (and other periodic channels, e.g. watchdog checks)
    share {e one} sampler domain, which the caller creates and
    stops.

    Snapshotting from a separate domain is safe by the registry's
    contract (atomic cells; derived gauges must themselves be
    cross-domain-safe, which all gauges in this tree are). *)

type t

(** [start ?interval_ms ~sampler reg ~file] begins sampling [reg] into
    [file] every [interval_ms] (default [200]) milliseconds, as a job
    on [sampler] (which the caller stops after {!stop}).

    @raise Invalid_argument if [interval_ms < 1].
    @raise Sys_error if [file] cannot be created. *)
val start :
  ?interval_ms:int -> sampler:Sampler.t -> Registry.t -> file:string -> t

(** The first beat's metrics (the snapshot taken synchronously inside
    {!start}), as the registry JSON — the baseline crash bundles embed
    for metric-delta rendering. *)
val first : t -> Json.t

(** Beats written so far (including beat 0). *)
val beats : t -> int

(** Unschedule the job (synchronously), write a final beat and close
    the file; the sampler keeps running.  Idempotent; returns the
    total number of beats written. *)
val stop : t -> int
