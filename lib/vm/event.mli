(** Events observed by instrumentation tools.

    Every executed instruction is described by one event: the dynamic
    instance identity (global step number), the static site (function,
    pc), the locations read and written, the effective memory address
    for loads/stores, and the resolved control-flow target.  The
    machine writes it into one reused {!view}; {!exec} is the same
    event as an immutable record, built from the view on demand
    ({!view_to_exec}) for tools that keep events.

    This is also the paper's §2.1 forwarding set — the memory
    addresses/values, input words and control-flow outcomes a main
    core must send to a DIFT helper core because the helper cannot
    reconstruct them from the static code; the multicore runtimes
    ([Dift_multicore.Helper] simulated, [Dift_parallel] real)
    forward exactly these events. *)

open Dift_isa

type fault_kind =
  | Div_by_zero
  | Invalid_icall of int  (** bad function id used as call target *)
  | Check_failed  (** a [Sys Check] assertion evaluated to zero *)
  | Invalid_free of int
  | Out_of_bounds of int
      (** heap access outside any live block (only with bounds
          checking enabled) *)

type fault = {
  kind : fault_kind;
  at_step : int;  (** the faulting dynamic instruction instance *)
  at_tid : int;
  at_func : string;
  at_pc : int;
}

(** Why a run ended. *)
type outcome =
  | Halted  (** a thread executed [Halt], or all threads finished *)
  | Faulted of fault
  | Deadlocked  (** live threads remain but none is runnable *)
  | Out_of_steps  (** the [max_steps] budget was exhausted *)
  | Stopped of string
      (** a tool requested the stop (e.g. attack detected) *)

type exec = {
  step : int;  (** global dynamic instruction count; unique id *)
  tid : int;
  func : Func.t;
  pc : int;
  instr : Instr.t;
  reads : Loc.t list;
  writes : Loc.t list;
  addr : int;  (** effective address of a load/store, or [-1] *)
  next_pc : int;
      (** pc the thread continues at inside the same function, or
          [-1] when control leaves the function *)
  input_index : int;  (** index of the input word consumed, or [-1] *)
  value : int;  (** primary value produced/written, or [0] *)
}

(** A mutable, array-backed form of {!exec}, designed to be refilled
    in place: the read/write sets live in reused scratch arrays of
    which the first [v_nreads]/[v_nwrites] entries are valid, in the
    same order as {!exec}'s lists.  The machine fills one view per
    instruction and hands it to every tool; the de-boxed forwarding
    plane decodes wire batches into one reused view per helper; the
    engine's transfer function, the encoder, the liveness filter and
    the router read views in place.

    {b Lifetime.}  A view handed to a callback is valid only for the
    duration of that call: its owner refills it for the next event.
    To keep an event, take its record with {!view_to_exec} (or build
    the tool with [Tool.make ~on_exec]). *)
type view = {
  mutable v_step : int;
  mutable v_tid : int;
  mutable v_func : Func.t;
  mutable v_pc : int;
  mutable v_instr : Instr.t;
  mutable v_reads : Loc.t array;
  mutable v_nreads : int;
  mutable v_writes : Loc.t array;
  mutable v_nwrites : int;
  mutable v_addr : int;
  mutable v_next_pc : int;
  mutable v_input_index : int;
  mutable v_value : int;
  mutable v_exec : exec option;
      (** cache of the boxed record: the original one when the view
          was filled from an exec, or the materialisation built by
          {!view_to_exec}; invalidated by refilling *)
}

(** A blank view to reuse ([func]/[instr] are placeholders until the
    first fill). *)
val view_create : func:Func.t -> instr:Instr.t -> view

(** A blank view to reuse, for an owner that has no program at hand
    ([func]/[instr] are placeholders until the first fill). *)
val view_blank : unit -> view

(** Refill [view] from a boxed record (grows the scratch arrays as
    needed, never shrinks them) and cache the record itself. *)
val view_fill : view -> exec -> unit

(** A fresh view carrying [exec]. *)
val view_of_exec : exec -> view

(** The boxed record for this view: the cached original when there is
    one, otherwise a freshly materialised (and then cached) record
    whose loc lists are copied out of the scratch arrays — safe to
    retain after the view is refilled.  Every caller between two fills
    gets the physically same record. *)
val view_to_exec : view -> exec

(** {!view_to_exec} without caching: the cached record when there is
    one, otherwise a fresh one that only the caller holds.  For the
    boxed wire, which ships the record away: caching it costs every
    event an allocation and a write barrier into the long-lived view,
    5-11% of the boxed configuration's application-domain time. *)
val view_record : view -> exec

val is_branch : exec -> bool
val pp_fault_kind : fault_kind Fmt.t
val pp_fault : fault Fmt.t
val pp_outcome : outcome Fmt.t
val pp_exec : exec Fmt.t
