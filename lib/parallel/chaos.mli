(** Deterministic fault injection for the parallel runtimes.

    The decoupled architecture of paper §2.1 is only as sound as its
    failure and shutdown legs: helper crash mid-drain, application
    crash mid-run, a stalled ring, an abort racing a parked peer.  Those legs run rarely in production and never on the happy
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

(** The exception a [Crash] fault injects — stands in for a
    helper/application crash.  The payload names the channel and
    operation it fired on. *)
exception Injected of string

(** Which channel operation a rule intercepts.  [Push]/[Pop] are the
    producer/consumer sides of the {!Spsc}-backed forwarding ring;
    [Spawn] intercepts [Domain.spawn] in the
    runtimes, modelling helper-domain creation failure. *)
type op = Push | Pop | Spawn

type fault =
  | Stall of int
      (** sleep this many ns {e before} the operation (on a feed
          ring's pop: after the batch is taken, before it is
          processed): an artificial full/empty stall on the
          intercepted side *)
  | Crash
      (** raise {!Injected} from the operation: a crash of the
          intercepting side.  A lost event would change the helper's
          result, so losing one and crashing are the same fault. *)

(** One scheduled fault: fire [fault] on the [at]-th (1-based)
    occurrence of [on] for channels whose name starts with [where]
    ([None] matches every channel).  Each rule fires at most once per
    matching channel instance. *)
type rule = { on : op; at : int; fault : fault; where : string option }

type plan = rule list

(** [plan_of_seed seed] derives a reproducible pseudo-random plan of
    four rules from [seed]: push/pop stalls and crashes at small
    occurrence indices, occasionally a spawn failure.  Same seed, same
    plan. *)
val plan_of_seed : int -> plan

(** Render a plan in the grammar {!plan_of_string} accepts —
    [plan_of_string (plan_to_string p) = Ok p]. *)
val plan_to_string : plan -> string

(** Parse the [--fault-plan] grammar:
    {v
plan  := rule (';' rule)*
rule  := [where '/'] op '@' at '=' fault
op    := 'push' | 'pop' | 'spawn'
fault := 'stall:' ns | 'crash'
    v}
    e.g. [push@3=crash;parallel/pop@2=stall:2000000].
    [where] is matched as a prefix of the channel namespace
    [parallel]; a [where] that is not a prefix of it is rejected, as
    it could never fire.  [drop], [abort], [raise] and [delay:] are rejected with an
    error that names the faults there are. *)
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
    the underlying {!Spsc} sides. *)
type inst

(** [instance t ~ns] — the ring that carries events, namespace
    [ns] ([parallel]). *)
val instance : t -> ns:string -> inst

(** Serve the next push (pop) on the ring: sleep out any [Stall]
    fired at this occurrence, then return the crash that any [Crash]
    fired here schedules — {!Injected}, naming the channel and the
    occurrence — for the seam to raise after its accounting. *)
val on_push : inst -> exn option

val on_pop : inst -> exn option

(** The [Spawn] interception point — global to the run (domains are
    spawned from one supervising domain); a [Crash] is a spawn
    failure. *)
val on_spawn : t -> exn option
