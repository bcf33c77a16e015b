(** The forwarding-plane switch: one producer/consumer surface over
    the two wire formats, so each runtime picks its encoding once and
    the feed/drain/supervision logic downstream is wire-agnostic.

    - [`Boxed] — the original plane: whole {!Dift_vm.Event.exec}
      records over an [Event.exec] {!Forwarder} (one pointer per
      event, heap-shaped payload).
    - [`Coded] — the de-boxed plane: flat {!Codec} batches of interned
      site ids and integer lanes (zero allocation per event in the
      steady state).

    Consumers always see {!Dift_vm.Event.view}s: the coded wire
    decodes into its scratch view, the boxed wire refills one from
    each record.  Every event-level counter is in logical events on
    both wires, so reports reconcile identically. *)

open Dift_vm

type wire = [ `Boxed | `Coded ]

val pp_wire : wire Fmt.t

(** The default geometry of every runtime's channels: ring slots, and
    events per batch.  Together they hold 4,096 events in flight; the
    large batch spreads each batch's handoff over many events. *)
val default_queue_capacity : int

val default_batch_size : int

type t

(** [create ~wire ~queue_capacity ~batch_size ~table ()] — both wires
    buffer up to [queue_capacity * batch_size] events.  The coded wire
    packs [batch_size] events into each {!Codec.batch}, one ring slot
    per batch, and forces [table] (the interned site table is only
    built when a coded channel actually needs it).  [probe],
    [escalate] and [ns] go to the underlying {!Forwarder.create}: the
    channel is one feed-ring seam (see {!Probe}), whatever its wire.
    @raise Invalid_argument if either size is [< 1]. *)
val create :
  ?probe:Probe.t ->
  ?escalate:bool ->
  ?ns:string ->
  wire:wire ->
  queue_capacity:int ->
  batch_size:int ->
  table:Site.table Lazy.t ->
  unit ->
  t

val wire : t -> wire

(** {1 Producer side} *)

(** Forward the event in the view: the coded wire encodes it in
    place, the boxed wire ships its record
    ({!Dift_vm.Event.view_record}: the one allocation that wire pays
    per event, unless the record is already cached in the view).  To
    send one event to several boxed channels, cache its record first
    ({!Dift_vm.Event.view_to_exec}) so that they all ship the same
    one. *)
val add_view : t -> Event.view -> unit

(** Forward a boxed record. *)
val add : t -> Event.exec -> unit

val flush : t -> unit
val close : t -> unit

(** {1 Consumer side} *)

(** Apply [f] to every forwarded event, in program order, as a reused
    view: do not retain it (call {!Dift_vm.Event.view_to_exec} to
    materialise a snapshot).  [around_batch] is {!Forwarder.drain}'s
    hook, wrapping each ring slot (one encoded batch on the coded
    wire).  [after_batch ~last_step:s] runs after each fully processed
    batch with the step of its last event — the liveness filter's
    epoch-advance hook.  If [f] raises, the channel is aborted before
    the exception propagates. *)
val drain :
  ?around_batch:((unit -> unit) -> unit) ->
  ?after_batch:(last_step:int -> unit) ->
  t ->
  f:(Event.view -> unit) ->
  unit

val abort : t -> unit

(** The channel's books (see {!Forwarder.counts}), in logical events
    on both wires. *)
val counts : t -> Forwarder.counts
