(** The outcome wire: the event stream as what the helper cannot
    rebuild from the static code (paper §2.1) — memory addresses,
    input indices and branch outcomes — instead of per-event
    {!Dift_vm.Event.exec} records.

    {b Wire format.}  A {!batch} holds up to [events_per_batch]
    events in two areas: the {e outcome lane} ([b_desc]) and the
    {e cut area} ([b_ovf]).  In event order, a Load or Store writes
    its address to the lane, a [Read] its input index, and a [Br]
    one taken bit, packed [Sys.int_size] to a lane word (the word is
    reserved in the lane where its first bit falls).  No event writes
    more than one lane word.

    {b The chain.}  Encoder and decoder carry the same state from
    event to event: the implied site (the last event's site moved by
    its next pc: [site - s_pc + next_pc]), the last step, the tid and
    the current activation frame.  An event is {e implied} when

    - its site is the implied site, its step the last step + 1 and its
      tid the last tid;
    - its read/write sets are frame-compact (the site row's register
      offsets in one frame, plus a Load's or Store's cell
      [addr lsl 1]) in the current frame.  A row that names no
      register neither checks nor moves the frame;
    - the lane value its row does not carry (the input index of a
      Load or Store, the address of a [Read], both elsewhere) is [-1];
    - its next pc is one of the row's successors ([s_next_pc], or
      [s_taken_pc] for a taken [Br]);
    - its value does not travel (below).

    An implied event costs its outcome only.  Any other event writes a
    {e cut}: a record [event index and mask; ...] in the cut area with
    only the fields that disagree (site, step, tid, frame, next pc,
    stray input index or address, value), then the sets verbatim when
    they are not frame-compact.  A cut's fields reset the chain.  The
    chain starts with no implied site, so every batch's first event is
    a cut and each batch decodes alone: the consumer, the discard and
    sweep paths and replays of single batches need nothing from
    earlier batches.  The encoder checks every field the decoder
    implies, so decode is exact for every stream, by construction.

    {b The value rule.}  The value is forwarded only where a helper
    reads it: always at a [Spawn] (the engine keys control taint by
    the child's tid), and at sink sites once {!forward_sink_values}
    was called (a run whose helper records sink events).  It travels
    in the cut; every other decoded event has [v_value = 0].

    {b Sites only.}  The encoder raises [Invalid_argument] for an
    event whose function, pc and instruction are not physically one of
    the interned program's sites.

    {b Cost.}  At the ledger's sizes a machine stream costs 0.12–0.17
    words per event ({!batch_words}) on the loop kernels (matmul,
    crc, sieve) and 0.17–0.38 on the call-dense ones: an address per
    memory access, a bit per branch and a cut per call boundary,
    thread switch or filtered gap.  Every word per event the helper
    reads is cross-core traffic the producer pays for (see
    [docs/performance.md], "The outcome wire").

    This module is the format: batches, the encoder and the decoder.
    The coded channel that carries them is {!Channel}'s [`Coded]
    wire, where steady-state forwarding allocates nothing per event:
    lanes are written in place, each full batch is one ring slot and
    carries its own event count ([b_n]), the consumer expands each
    event into one reused {!Dift_vm.Event.view} scratch and empties
    each batch ({!batch_clear}) before its next pop, and the producer
    reopens its own shipped batches once the consumer is past them.

    See the "Wire format" section of [docs/forwarding-protocol.md]. *)

open Dift_vm

(** {1 Batches} *)

(** The consumer's expansion state inside a batch. *)
type cursor

type batch = {
  b_desc : int array;
      (** the outcome lane, as long as the batch's capacity (the
          benchmark harness reads it by this name) *)
  mutable b_ovf : int array;  (** the cut area *)
  mutable b_n : int;  (** events *)
  mutable b_ovf_n : int;  (** cut-area words in use *)
  mutable b_lane_n : int;  (** outcome-lane words written *)
  mutable b_cuts : int;  (** events written as cuts *)
  mutable b_verbatim : int;
      (** cuts whose sets ride verbatim (not frame-compact) *)
  b_get : cursor;
}

(** A fresh batch for [events_per_batch] events.
    @raise Invalid_argument if [events_per_batch < 1]. *)
val batch_create : events_per_batch:int -> batch

val batch_length : batch -> int
val batch_clear : batch -> unit

(** The words the batch carries: its header word ([b_n]), the
    outcome-lane words written and the cut area in use. *)
val batch_words : batch -> int

(** {1 Raw encode / decode}

    Exposed for the round-trip property tests and the benchmark
    harness; runtimes go through {!Channel}. *)

type encoder

val encoder : Site.table -> encoder

(** From now on, forward the value at every sink site too (see the
    value rule above).  For a run whose helper records sink events. *)
val forward_sink_values : encoder -> unit

(** Append one event to the batch (which must not be full), reading
    the view's fields and location arrays in place.  An encoder fills
    one batch at a time: its chain restarts at each batch's first
    event.
    @raise Invalid_argument if the batch is full, if the event is not
    one of the table's sites, or if the batch is half filled by
    another encoder (or before another batch was started). *)
val encode_view : encoder -> batch -> Event.view -> unit

(** {!encode_view} over a boxed record (filled into the encoder's
    scratch view). *)
val encode : encoder -> batch -> Event.exec -> unit

(** [decode_into table b i v] rebuilds event [i] of [b] into the
    reused view [v] (invalidating [v]'s cached exec), in any order:
    O(1) when [i] follows the event decoded last, else by expanding
    again from the batch's leading cut.  Of [v]'s pointer fields it
    writes the instruction every event and the function, the cached
    record and the location arrays only when they change.  Allocates
    nothing once [v]'s scratch arrays cover the stream's maximum
    read/write fan.
    @raise Invalid_argument if [i] is not an event of [b]. *)
val decode_into : Site.table -> batch -> int -> Event.view -> unit

(** [decode_batch table b v f] decodes every event of [b], in order,
    into [v] and applies [f] to it: the consumer's loop, one call per
    batch.  Afterwards [v] holds the batch's last event. *)
val decode_batch :
  Site.table -> batch -> Event.view -> (Event.view -> unit) -> unit
