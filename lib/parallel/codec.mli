(** The de-boxed forwarding plane: a flat struct-of-arrays wire format
    for the event stream, replacing per-event {!Dift_vm.Event.exec}
    records (boxed ints, two location lists, a function pointer) with
    preallocated integer lanes plus an interned {!Dift_vm.Site} id.

    {b Wire format.}  A {!batch} holds up to [events_per_batch] events
    as parallel [int array] lanes — site id, step, tid, addr, value,
    next_pc, input_index, and a [desc] word — plus one shared growable
    overflow area.  [desc] bit 0 picks the encoding of the event's
    read/write location sets:

    - [1] — {e frame-compact}: [desc lsr 1] is the activation-frame
      serial.  The sets are rebuilt from the site row's static
      register offsets ([(frame lsl Site.frame_shift) + off]) and, for
      loads/stores, the memory cell from the [addr] lane.  The encoder
      verifies this shape {e element-wise against the live event}
      before using it, so decoding is exact by construction.
    - [0] — {e explicit}: [desc lsr 1] is an offset into the overflow
      area holding [nreads, nwrites, reads.., writes..] verbatim.
      Used whenever the dynamic shape diverges from the static row:
      call/return boundaries (two frames), indirect-call target
      operands, faulting events.
    - [desc < 0] — {e escape}: the event is foreign to the interned
      program (a hand-built stream whose [(func, pc, instr)] is not
      physically one of the program's own sites); it rides boxed in
      the batch's escape lane at index [-desc - 1] and decodes by
      {!Dift_vm.Event.view_fill}, exact by construction.  The encoder
      detects this per event: the function must be physically one of
      the program's ({!Dift_vm.Site.base_of_func}, looked up only when
      the function changes), the pc inside its body, and the
      instruction physically the row's.  Machine streams never take
      it, so the steady state stays flat.

    Steady-state forwarding allocates nothing per event: lanes are
    written in place, full batches travel the ring as single elements
    (weighted by their event count, see {!Forwarder.add_n}), the
    consumer decodes each event into one reused {!Dift_vm.Event.view}
    scratch, and spent batches cycle back to the producer inside the
    ring slots the forwarder recycles ({!Forwarder.reusable}; one free
    list, one [ring.free.<ns>] chaos seam, explicitly-targeted rules
    only).

    See the "Wire format" section of [docs/forwarding-protocol.md]. *)

open Dift_vm

(** {1 Batches} *)

type batch = {
  b_site : int array;
  b_step : int array;
  b_tid : int array;
  b_addr : int array;
  b_value : int array;
  b_next_pc : int array;
  b_input : int array;
  b_desc : int array;
  mutable b_ovf : int array;
  mutable b_esc : Event.exec array;
      (** boxed escape lane for foreign events (negative [desc]) *)
  mutable b_n : int;
  mutable b_ovf_n : int;
  mutable b_esc_n : int;
}

(** A fresh batch with all lanes sized [events_per_batch].
    @raise Invalid_argument if [events_per_batch < 1]. *)
val batch_create : events_per_batch:int -> batch

val batch_capacity : batch -> int
val batch_length : batch -> int
val batch_clear : batch -> unit

(** {1 Raw encode / decode}

    Exposed for the round-trip property tests and the benchmark
    harness; runtimes normally go through the channel below. *)

type encoder

val encoder : Site.table -> encoder

(** Append one event to the batch (which must not be full), reading
    the view's fields and location arrays in place. *)
val encode_view : encoder -> batch -> Event.view -> unit

(** {!encode_view} over a boxed record (filled into the encoder's
    scratch view). *)
val encode : encoder -> batch -> Event.exec -> unit

(** [decode_into table b i v] rebuilds event [i] of [b] into the
    reusable view [v] (invalidating [v]'s cached exec).  Allocates
    nothing once [v]'s scratch arrays cover the stream's maximum
    read/write fan. *)
val decode_into : Site.table -> batch -> int -> Event.view -> unit

(** {1 The coded channel}

    A drop-in counterpart of an [Event.exec Forwarder.t]: the producer
    {!feed_view}s the machine's views, the consumer {!drain}s decoded
    views.  All
    event-level accounting (events, dropped/discarded/consumed) is in
    logical events, so reports and ledgers reconcile exactly as with
    the boxed channel. *)

type t

(** [create ~queue_capacity ~events_per_batch ~table ()] — the
    underlying ring holds [queue_capacity] encoded batches of up to
    [events_per_batch] events each, so the channel buffers up to
    [queue_capacity * events_per_batch] events, matching a boxed
    channel of the same [queue_capacity] and [batch_size =
    events_per_batch].  The observability/chaos options are forwarded
    to {!Forwarder.create} unchanged (same [ns] conventions); spent
    lanes come back through the forwarder's own free list, under its
    [ring.free.<ns>] chaos seam.
    @raise Invalid_argument if either size is [< 1]. *)
val create :
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?progress:Dift_obs.Progress.t ->
  ?escalate:bool ->
  ?ns:string ->
  queue_capacity:int ->
  events_per_batch:int ->
  table:Site.table ->
  unit ->
  t

val table : t -> Site.table

(** {2 Producer side} *)

(** Encode and forward one event, read in place from the view; ships
    the open batch when it reaches [events_per_batch] (blocking while
    the ring is full). *)
val feed_view : t -> Event.view -> unit

(** {!feed_view} over a boxed record (filled into a scratch view). *)
val feed : t -> Event.exec -> unit

(** Ship the open partial batch, if any. *)
val flush : t -> unit

(** Flush and close the ring. *)
val close : t -> unit

(** {2 Consumer side} *)

(** [drain t ~f] decodes every forwarded event in program order into
    an internal scratch view and applies [f] to it; returns when the
    channel is closed and fully drained.  The view is {e reused}: [f]
    must not retain it (call {!Dift_vm.Event.view_to_exec} to
    materialise a snapshot).  [around_batch] is {!Forwarder.drain}'s
    hook, wrapping each {e encoded} batch.  [after_batch
    ~last_step:s] runs after each non-empty batch with the step of
    its last event — the liveness filter's epoch-advance hook.  If
    [f] raises, the channel is aborted before the exception
    propagates. *)
val drain :
  ?around_batch:((unit -> unit) -> unit) ->
  ?after_batch:(last_step:int -> unit) ->
  t ->
  f:(Event.view -> unit) ->
  unit

(** Consumer gives up: unblocks the producer for good. *)
val abort : t -> unit

val aborted : t -> bool

(** {2 Accounting} (see {!Forwarder} for semantics; event counters
    move in logical events via {!Forwarder.add_n} weights) *)

val events : t -> int
val batches : t -> int
val dropped_batches : t -> int
val dropped_events : t -> int
val discarded_batches : t -> int
val discarded_events : t -> int
val consumed_batches : t -> int
val consumed_events : t -> int
val producer_stalls : t -> int
val consumer_waits : t -> int
val in_flight_batches : t -> int
