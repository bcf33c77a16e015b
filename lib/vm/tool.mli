(** The instrumentation-tool interface.

    A tool is what a Pin/Valgrind plugin is to a real binary: a set of
    callbacks invoked by the machine as execution proceeds.  Every
    observer in the reproduction is a tool: the DIFT engines (paper
    §2.1, §3.3, §3.4), the ONTRAC tracer (§2.1), the request logger
    (§2.2) and the race detector (§3.1).

    The machine describes each executed instruction once, in one
    reused {!Event.view} that it refills in place, and hands that
    view to every attached tool through [on_view].  The view is
    valid only for the duration of the call: a tool that keeps an
    event must take a record, either by being built with [~on_exec]
    or by calling {!Event.view_to_exec} itself.  The record is
    materialised at most once per event and shared by every tool that
    asks for it, so records kept past the call stay valid and equal.

    [dispatch_cost] is the per-instruction overhead the machine
    charges while this tool is attached.  Binary-instrumentation tools
    pay {!Cost.dbi_dispatch}; OS-level observers (checkpoint/logging,
    or a tracer that instruments selectively and charges itself) pass
    [0]. *)

type t = {
  name : string;
  dispatch_cost : int;
  on_view : Event.view -> unit;
      (** called after each instruction's effects are applied, with
          the machine's live view (valid only during the call) *)
  on_fault : Event.fault -> unit;  (** called when the machine faults *)
  on_finish : Event.outcome -> unit;
      (** called once, when the run ends *)
}

(** [make name] builds a tool.  [on_view] sees the live view;
    [on_exec] is an adapter that sees the event's boxed record
    ({!Event.view_to_exec}), safe to keep.  When both are given,
    [on_view] runs first. *)
val make :
  ?dispatch_cost:int ->
  ?on_view:(Event.view -> unit) ->
  ?on_exec:(Event.exec -> unit) ->
  ?on_fault:(Event.fault -> unit) ->
  ?on_finish:(Event.outcome -> unit) ->
  string ->
  t
