(** Deterministic fault plans for the parallel runtimes.

    The decoupled architecture of paper §2.1 is only as sound as its
    failure and shutdown legs: helper crash mid-drain, application
    crash mid-run, a stalled ring, an abort racing a parked peer.  Those legs run rarely in production and never on the happy
    path the cross-validation tests exercise — so this module makes
    them {e schedulable}: a {!plan} is a deterministic list of faults
    keyed to the N-th occurrence of a seam operation.

    This module is the plan and the run's fault totals ({!t}).  The
    {!Probe} counts each seam's occurrences in its seam handles, asks
    {!fire} which faults the plan schedules there, records each one
    as a [chaos.fire] flight event on the intercepting domain and
    serves it.  The seam is strictly {b opt-in}: without a [?chaos]
    argument the probe's fault check is one branch and the operation
    takes the ordinary [Spsc] path.

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
    occurrence of [on].  A run has one ring and spawns one helper, so
    each rule fires at most once per run. *)
type rule = { on : op; at : int; fault : fault }

type plan = rule list

(** [plan_of_seed seed] derives a reproducible pseudo-random plan of
    four rules from [seed]: push/pop stalls and crashes at small
    occurrence indices, occasionally a spawn failure ([spawn@1]).
    Same seed, same plan. *)
val plan_of_seed : int -> plan

(** Render a plan in the grammar {!plan_of_string} accepts —
    [plan_of_string (plan_to_string p) = Ok p]. *)
val plan_to_string : plan -> string

(** Parse the [--fault-plan] grammar:
    {v
plan  := rule (';' rule)*
rule  := op '@' at '=' fault
op    := 'push' | 'pop' | 'spawn'
fault := 'stall:' ns | 'crash'
    v}
    e.g. [push@3=crash;pop@2=stall:2000000].  A run has one ring, so a
    rule names no channel: an op with a [/] in it is an unknown op.
    [spawn@N] for [N > 1] is rejected, as a run spawns one helper and
    the rule could never fire.  [drop], [abort], [raise] and [delay:]
    are rejected with an error that names the faults there are. *)
val plan_of_string : string -> (plan, string) result

val pp_plan : plan Fmt.t

(** {1 A run's fault totals} *)

type t

val create : plan -> t
val plan : t -> plan

(** Faults fired so far (atomic — readable from any domain). *)
val fired : t -> int

(** Total injected sleep actually served so far, in ns (atomic).
    Individual [Stall] durations are clamped to 2 s apiece before
    serving, so a fat-fingered plan degrades a run instead of wedging
    it past any watchdog deadline; this total is post-clamp, letting
    tests reconcile elapsed wall time against the plan. *)
val stalled_ns : t -> int

(** {1 Serving a seam} *)

(** [fire t op n] is the faults the plan schedules at the [n]-th
    occurrence of [op], in plan order, each counted in {!fired}. *)
val fire : t -> op -> int -> fault list

(** [stall t ns] sleeps [ns], clamped to 2 s, and adds what it served
    to {!stalled_ns}. *)
val stall : t -> int -> unit

(** A fault in the plan grammar: [crash], [stall:<ns>]. *)
val fault_to_string : fault -> string
