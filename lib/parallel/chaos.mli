(** Deterministic fault injection for the parallel runtimes.

    The decoupled architecture of paper §2.1 is only as sound as its
    failure and shutdown legs: helper crash mid-drain, application
    crash mid-run, a stalled exchange ring, an abort racing a parked
    peer.  Those legs run rarely in production and never on the happy
    path the cross-validation tests exercise — so this module makes
    them {e schedulable}: a {!plan} is a deterministic list of faults
    keyed to the N-th occurrence of a channel operation, and the
    runtimes consult an optional {!t} through their {!Probe}, in the
    one probe call each seam operation makes.

    The seam is strictly {b opt-in}: without a [?chaos] argument the
    probe's fault check is one branch and the operation takes the
    ordinary [Spsc] path.

    Plans are reproducible two ways: {!plan_of_seed} derives one
    pseudo-randomly from an integer seed (the CI sweep), and the
    {!plan_of_string} grammar round-trips through {!plan_to_string}
    (the [diftc taint --fault-plan] flag), so any red sweep seed is a
    one-flag repro. *)

(** The exception injected by a [`Raise] fault — stands in for a
    helper/application crash.  The payload names the channel and
    operation it fired on. *)
exception Injected of string

(** Which channel operation a rule intercepts.  [Push]/[Pop] are the
    producer/consumer sides of any {!Spsc}-backed channel (forwarding
    ring or exchange ring); [Spawn] intercepts [Domain.spawn] in the
    runtimes, modelling helper-domain creation failure. *)
type op = Push | Pop | Spawn

type fault =
  | Stall of int
      (** sleep this many ns {e before} the operation: an artificial
          full/empty stall on the intercepted side *)
  | Drop  (** fail the operation: a push is dropped (and counted), a
              pop discards the popped element (and counts it) *)
  | Abort  (** abort the channel (or the whole exchange mesh) at this
               operation *)
  | Raise  (** raise {!Injected} from the operation: a crash on the
               intercepting side *)

(** One scheduled fault: fire [fault] on the [at]-th (1-based)
    occurrence of [on] for channels whose name starts with [where]
    ([None] matches every channel).  Each rule fires at most once per
    matching channel instance. *)
type rule = { on : op; at : int; fault : fault; where : string option }

type plan = rule list

(** [plan_of_seed ?rules seed] derives a reproducible pseudo-random
    plan ([rules] rules, default 4) from [seed]: mixed push/pop
    stalls, drops, aborts and raises at small occurrence
    indices, occasionally a spawn failure.  Same seed, same plan. *)
val plan_of_seed : ?rules:int -> int -> plan

(** Render a plan in the grammar {!plan_of_string} accepts —
    [plan_of_string (plan_to_string p) = Ok p]. *)
val plan_to_string : plan -> string

(** Parse the [--fault-plan] grammar:
    {v
plan  := rule (';' rule)*
rule  := [where '/'] op '@' at '=' fault
op    := 'push' | 'pop' | 'spawn'
fault := 'stall:' ns | 'drop' | 'abort' | 'raise'
    v}
    e.g. [push@3=abort;parallel.shard1/pop@2=raise;xchg/push@1=stall:2000000].
    [where] is matched as a prefix of the channel namespace
    ([parallel], [parallel.shard<i>], [xchg.<src>.<dst>]). *)
val plan_of_string : string -> (plan, string) result

val pp_plan : plan Fmt.t

(** {1 Instances}

    A {!t} is one run's fault state: the plan plus a fired-fault
    count.  Each channel derives a per-channel {!inst} carrying its
    own operation counters, so rule occurrence indices are counted
    per channel, not globally. *)

type t

(** [create ?flight plan] — with [?flight], every fired rule records a
    [chaos.fire] flight event (category [chaos], [a] = occurrence
    index, [detail] = ["<ns>/<op>=<fault>"]) {e on the domain the
    fault intercepts} — so a crash bundle always carries at least one
    flight event from the crashing domain, whichever leg the plan
    hit. *)
val create : ?flight:Dift_obs.Flight.t -> plan -> t

val plan : t -> plan

(** Faults fired so far, across every instance (atomic — readable
    from any domain). *)
val fired : t -> int

(** Total injected sleep actually served so far, in ns, across every
    instance (atomic).  Individual [Stall] durations are
    clamped to 2 s apiece before serving, so a fat-fingered plan
    degrades a run instead of wedging it past any watchdog deadline;
    this total is post-clamp, letting tests reconcile elapsed wall
    time against the plan. *)
val stalled_ns : t -> int

(** A per-channel view: [ns] selects which rules apply (prefix
    match).  Push operations must come from the channel's single
    producer domain and pops from its single consumer domain, like
    the underlying {!Spsc} sides.

    [escalate] marks a channel whose losses would wedge a protocol
    riding on it (e.g. the sharded request/reply feed rings, where a
    shard missing an event strands its peers mid-exchange): [Drop]
    and [Abort] faults on such a channel are served as [Raise_now]
    instead — a crash of the intercepting side, which the supervised
    shutdown tears down cleanly.  Same policy the exchange mesh
    applies to its own rings.

    [targeted_only] restricts the instance to rules with an explicit
    [where] prefix: bare rules (no [where]) do not match.  Auxiliary
    rings whose faults are pure degradations — the forwarder's
    free-list ring ([ring.free.*]) — use it so that a plan like
    [pop@1=raise] keeps meaning "the first {e event-carrying} pop",
    not whichever recycling pop happens to run first. *)
type inst

val instance : ?escalate:bool -> ?targeted_only:bool -> t -> ns:string -> inst

(** What the intercepted operation should do.  [Stall] faults
    are served {e inside} [on_push]/[on_pop] (the call sleeps, then
    returns [Proceed]); the terminal faults are returned for the seam
    to interpret, so that dropped work is accounted where the counts
    live. *)
type action =
  | Proceed
  | Fail  (** [Drop]: the caller drops/discards and counts *)
  | Abort_now  (** [Abort]: the caller aborts the channel/mesh *)
  | Raise_now of exn  (** [Raise]: the caller raises after accounting *)

val on_push : inst -> action
val on_pop : inst -> action

(** The [Spawn] interception point — global to the run (domains are
    spawned from one supervising domain). *)
val on_spawn : t -> action
