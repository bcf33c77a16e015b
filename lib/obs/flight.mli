(** The flight recorder: a bounded, always-on ring of recent
    structured events, one ring per recording domain.

    {2 Purpose}

    The {!Trace} module answers "what did the whole run look like" —
    it buffers everything (up to a large cap) and exports a Chrome
    timeline.  The flight recorder answers a different question:
    "what were the last things each domain did before the crash".  It
    keeps only the most recent [capacity] events per domain in a
    fixed-size ring, overwriting the oldest — so its memory footprint
    is constant no matter how long the run, and it can stay enabled in
    production the way an aircraft flight recorder does.  Crash
    bundles ([Postmortem]) embed each domain's ring tail next to the
    structured error.

    {2 Hot path}

    [record] is one [Domain.DLS.get], a record allocation, an array
    store into the calling domain's private ring and one atomic
    increment — no locks, no blocking, ever.  Overflow overwrites the
    oldest slot and is counted ({!overwritten}), never dropped
    silently and never back-pressuring the recording domain.  The
    recorder-wide mutex guards only the ring list (taken once per
    domain, at its first event).

    {2 Quiescence}

    {!tails} and {!to_json} read the per-domain rings, which are plain
    mutable state owned by their recording domains — call them only
    after every recording domain has quiesced (been joined).  Like
    {!Trace.events}, the precondition is asserted: a ring that moves
    while being read raises [Invalid_argument].  The supervised
    runtimes ([Parallel.run_result] and friends) join every domain
    before returning an error, so bundle assembly is always safe. *)

type t

(** One recorded event.  [a]/[b] are two free-form integer payload
    slots (batch length, occurrence index, …) and [detail] an optional
    free-form string; their meaning is per-event-name, catalogued in
    [docs/observability.md]. *)
type entry = {
  ts_ns : int;  (** relative to the recorder's creation, monotonic *)
  cat : string;
  name : string;
  a : int;
  b : int;
  detail : string;  (** empty when the event carries none *)
}

(** One domain's recent history, oldest entry first. *)
type tail = {
  t_tid : int;  (** the recording domain's id *)
  t_domain : string;  (** its {!name_domain} label, or ["domain-N"] *)
  t_recorded : int;  (** events this domain recorded in total *)
  t_entries : entry list;  (** the most recent, at most [capacity] *)
}

(** [create ?capacity ()] is a fresh recorder keeping the most recent
    [capacity] (default [512]) events per recording domain.

    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

(** Ring capacity per recording domain. *)
val capacity : t -> int

(** Nanoseconds since the recorder was created (monotonic clock). *)
val now_ns : t -> int

(** Label the calling domain's ring (["app"], ["helper"], …).
    Defaults to ["domain-N"]. *)
val name_domain : t -> string -> unit

(** [record t ~cat name] appends an event to the calling domain's
    ring, timestamped now.  Never blocks; overwrites the oldest entry
    when the ring is full (counted, see {!overwritten}). *)
val record : t -> ?a:int -> ?b:int -> ?detail:string -> cat:string ->
  string -> unit

(** Total events recorded across all domains (including overwritten
    ones).  Safe from any domain at any time. *)
val recorded : t -> int

(** Events lost to ring overwrite across all domains.  Safe from any
    domain at any time. *)
val overwritten : t -> int

(** Number of domains that have recorded at least one event. *)
val domains : t -> int

(** Surface the recorder in a metrics registry: [flight.recorded] and
    [flight.overwritten] gauges (live, cross-domain-safe), plus
    [flight.domains] and [flight.capacity_per_domain]. *)
val register_obs : t -> Registry.t -> unit

(** Each domain's ring tail, ordered by domain id.  Quiescent
    recorder only — see the module preamble.

    @raise Invalid_argument if a ring moves during the read. *)
val tails : t -> tail list

(** The recorder as JSON — the [flight] section of a crash bundle:
    [{capacity, recorded, overwritten, domains: [{tid, name, recorded,
    events: [{ts_ns, cat, name, a, b, detail?}]}]}].  Quiescent
    recorder only.

    @raise Invalid_argument if a ring moves during the read. *)
val to_json : t -> Json.t
