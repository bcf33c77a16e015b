(** VM observability: a {!Tool} that counts the machine's event stream
    into a {!Dift_obs.Registry}.

    Metrics (group [vm]; see [docs/observability.md]):

    - [vm.events.exec] / [vm.events.fault] / [vm.events.finish] — one
      counter per tool-event class;
    - [vm.instr.<class>] — the instruction mix: executed instructions
      bucketed into [nop], [mov], [alu], [cmp], [load], [store],
      [jmp], [br], [call], [icall], [ret], [halt], [sys_read],
      [sys_write], [sys_thread], [sys_sync], [sys_heap], [sys_check],
      [sys_mark], [sys_exit].

    The per-event work is two allocation-free atomic increments
    (counters are pre-registered at attach time), so the tool is cheap
    enough to leave attached during measurement runs; like other
    OS-level observers it charges no modelled DBI dispatch cost. *)

(** [attach reg m] registers the [vm.*] counters in [reg] and attaches
    the counting tool to [m].  Attaching to several machines with the
    same registry accumulates into the same counters. *)
val attach : Dift_obs.Registry.t -> Machine.t -> unit

(** {1 Timeline tracing}

    Where {!attach} aggregates, {!attach_trace} shows the workload's
    phases on the execution timeline: every 64th executed instruction,
    starting with the first, records an instant event named
    [instr.<class>] (category [vm], with the step and pc as
    arguments) into the calling domain's trace track, so instruction
    phases (e.g. a load-heavy inner loop giving way to output writes)
    are visible between the surrounding spans.  Faults and run
    completion record [fault]/[finish] instants unconditionally. *)

(** [attach_trace tr m] attaches the sampling trace tool to [m]. *)
val attach_trace : Dift_obs.Trace.t -> Machine.t -> unit
