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

    This module is the format: batches, the encoder and the decoder.
    The coded channel that carries them is {!Channel}'s [`Coded]
    wire, where steady-state forwarding allocates nothing per event:
    lanes are written in place, full batches travel the ring as
    single elements (weighted by their event count, see
    {!Forwarder.add_n}), the consumer decodes each event into one
    reused {!Dift_vm.Event.view} scratch, and spent batches cycle back
    to the producer inside the ring slots the forwarder recycles
    ({!Forwarder.reusable}).

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
    harness; runtimes go through {!Channel}. *)

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

(** [decode_batch table b v f] decodes every event of [b], in order,
    into [v] and applies [f] to it: the consumer's loop, one call per
    batch. *)
val decode_batch :
  Site.table -> batch -> Event.view -> (Event.view -> unit) -> unit
