(** The minimal forwarding wire: the event stream as flat integer
    lanes that carry only what the helper cannot rebuild from the
    static code (paper §2.1), instead of per-event
    {!Dift_vm.Event.exec} records.

    {b Wire format.}  A {!batch} holds up to [events_per_batch]
    events: one descriptor word each, a value lane, an address lane
    written only at the sites that carry one, a header word (the step
    of event 0, [b_step0]) and one shared growable overflow area.  The
    descriptor packs, from bit 0 up:

    - [C] (bit 0) — the read/write sets are {e frame-compact}: they
      rebuild from the site row's static register offsets
      ([(frame lsl Site.frame_shift) + off]) and, for loads/stores,
      the memory cell from the address lane.  [0] means the sets
      diverge from the row (call/return boundaries, indirect-call
      target operands, faults) and ride verbatim in the overflow area.
    - [X] (bit 1) — the payload is an overflow offset rather than the
      frame serial.
    - [T] (bit 2) — a [Br] went to its taken target.
    - the thread id (6 bits), the step gap (10 bits), the interned
      {!Dift_vm.Site} id (22 bits), and the payload (the rest): the
      activation-frame serial, or the overflow offset.

    {b Implied fields.}  The step is [b_step0 + i + gap]; the tid is
    the descriptor's; [next_pc] is the row's static successor
    (the row's [s_next_pc], or [s_taken_pc] under [T]); the
    address lane holds a Load/Store's address and a [Read]'s input
    index, and the other one of the two is [-1], as both are at every
    other site.  The encoder checks each implied field against the
    live event.  Where one disagrees (a filtered or routed stream's
    step gaps past the field, a tid past 63, a fault's or a waiting
    barrier's [next_pc], a hand-built event's stray address), or the
    frame serial outgrows the payload, or the sets are not compact,
    the event gets an overflow record at the payload's offset:
    [mask], the disagreeing fields in mask order (step, tid, next_pc,
    input index, address), then the frame serial ([C = 1]) or
    [nreads, nwrites, reads.., writes..] ([C = 0]).  So decode is
    exact for every stream, by construction.

    {b Sites only.}  The encoder raises [Invalid_argument] for an
    event whose function, pc and instruction are not physically one of
    the interned program's sites, and for an overflow offset past the
    payload, which no machine stream reaches in a batch of at most
    {!max_batch_size} events.

    On a single-threaded machine stream an event costs its descriptor,
    its value and, at a Load, Store or Read, one address-lane word:
    about two words plus the overflow of call boundaries
    ({!batch_words}).

    This module is the format: batches, the encoder and the decoder.
    The coded channel that carries them is {!Channel}'s [`Coded]
    wire, where steady-state forwarding allocates nothing per event:
    lanes are written in place, each full batch is one ring slot and
    carries its own event count ([b_n]), the consumer decodes each
    event into one reused {!Dift_vm.Event.view} scratch and empties
    each batch ({!batch_clear}) before its next pop, and the producer
    reopens its own shipped batches once the consumer is past them,
    their lanes refilled.

    See the "Wire format" section of [docs/forwarding-protocol.md]. *)

open Dift_vm

(** {1 Batches} *)

type batch = {
  b_desc : int array;  (** one descriptor per event *)
  b_value : int array;
  b_addr : int array;
      (** written only at Load/Store (the address) and Read (the input
          index) sites *)
  mutable b_ovf : int array;
  mutable b_n : int;
  mutable b_ovf_n : int;
  mutable b_addr_n : int;  (** address-lane words written *)
  mutable b_step0 : int;  (** header: the step of event 0 *)
}

(** The largest batch (14,980 events) whose overflow offsets fit the
    payload whatever the machine's events. *)
val max_batch_size : int

(** A fresh batch with all lanes sized [events_per_batch].
    @raise Invalid_argument if [events_per_batch] is outside
    [[1, max_batch_size]]. *)
val batch_create : events_per_batch:int -> batch

val batch_length : batch -> int
val batch_clear : batch -> unit

(** The words the batch carries: its two header words ([b_n],
    [b_step0]), one descriptor and one value per event, the
    address-lane words written and the overflow area in use. *)
val batch_words : batch -> int

(** {1 Raw encode / decode}

    Exposed for the round-trip property tests and the benchmark
    harness; runtimes go through {!Channel}. *)

type encoder

(** @raise Invalid_argument if the table has more sites than the
    descriptor's 22-bit site field holds. *)
val encoder : Site.table -> encoder

(** Append one event to the batch (which must not be full), reading
    the view's fields and location arrays in place.
    @raise Invalid_argument if the batch is full or the event is not
    one of the table's sites. *)
val encode_view : encoder -> batch -> Event.view -> unit

(** {!encode_view} over a boxed record (filled into the encoder's
    scratch view). *)
val encode : encoder -> batch -> Event.exec -> unit

(** [decode_into table b i v] rebuilds event [i] of [b] into the
    reused view [v] (invalidating [v]'s cached exec).  Of [v]'s
    pointer fields it writes the instruction every event and the
    function, the cached record and the location arrays only when
    they change.  Allocates nothing once [v]'s scratch arrays cover
    the stream's maximum read/write fan. *)
val decode_into : Site.table -> batch -> int -> Event.view -> unit

(** [decode_batch table b v f] decodes every event of [b], in order,
    into [v] and applies [f] to it: the consumer's loop, one call per
    batch.  Afterwards [v] holds the batch's last event. *)
val decode_batch :
  Site.table -> batch -> Event.view -> (Event.view -> unit) -> unit
